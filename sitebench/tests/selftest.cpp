// Checks of the benchmark's own generator and oracle: one seed always
// yields the same op stream and expectations, and a flipped expectation
// is caught (a deny outcome against an expected permit fails the op; a
// permit against an expected deny is an unexpected permit).
#include <cstdio>
#include <string>
#include <vector>

#include "model.h"

namespace {

int failures = 0;

void Check(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::string Describe(const sitebench::Op& op) {
  std::string out = std::to_string(op.requester);
  out += '/';
  out += std::to_string(op.target);
  out += '/';
  out += sitebench::ExpectName(op.expect);
  for (std::uint32_t f = 0; f < sitebench::kFilesPerSession; ++f) {
    out += '/';
    out += std::to_string(op.file[f]);
    out += ':';
    out += std::to_string(op.file_owner[f]);
    out += ':';
    out += sitebench::ExpectName(op.file_expect[f]);
  }
  return out;
}

std::string Stream(std::uint64_t seed, sitebench::Workload workload) {
  const sitebench::SiteSpec spec = sitebench::MakeSiteSpec(seed);
  std::string out = sitebench::VoPolicyText(spec, 3);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    out += Describe(sitebench::MakeOp(spec, workload, 1, i)) + "\n";
  }
  return out;
}

// Runs JudgeBlocks over a file whose blocks return `results` in turn
// (the last one repeats); `checked` gets how many blocks were checked.
sitebench::Verdict JudgeFile(sitebench::Expect expect,
                             const std::vector<sitebench::Observed>& results,
                             std::uint32_t* checked) {
  *checked = 0;
  return sitebench::JudgeBlocks(expect, sitebench::kBlocksPerFile, [&] {
    const std::uint32_t i = (*checked)++;
    return results[i < results.size() ? i : results.size() - 1];
  });
}

}  // namespace

int main() {
  using sitebench::Expect;
  using sitebench::Judge;
  using sitebench::Observed;
  using sitebench::Verdict;
  using sitebench::Workload;

  for (Workload w : {Workload::kManage, Workload::kTransfer}) {
    Check(Stream(7, w) == Stream(7, w), "same seed, same stream");
    Check(Stream(7, w) != Stream(8, w), "another seed, another stream");
  }

  // Order independence: op i is the same whether drawn first or last.
  const sitebench::SiteSpec spec = sitebench::MakeSiteSpec(11);
  Check(Describe(sitebench::MakeOp(spec, Workload::kManage, 0, 999)) ==
            Describe(sitebench::MakeOp(spec, Workload::kManage, 0, 999)),
        "op is a pure function of its index");

  // The stream carries the promised mix of expectations.
  int manage_denies = 0, mint_denies = 0, scope_denies = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    manage_denies +=
        sitebench::MakeOp(spec, Workload::kManage, 0, i).expect != Expect::kPermit;
    const sitebench::Op t = sitebench::MakeOp(spec, Workload::kTransfer, 0, i);
    mint_denies += t.expect == Expect::kDenyMint;
    for (Expect e : t.file_expect) scope_denies += e == Expect::kDenyScope;
  }
  Check(manage_denies > n * 8 / 100 && manage_denies < n * 12 / 100,
        "about 10% of status requests expect a deny");
  Check(mint_denies > n * 4 / 100 && mint_denies < n * 6 / 100,
        "about 5% of data sessions expect a mint deny");
  Check(scope_denies > 0, "some files lie outside their session scope");

  // Push versions change only passive members' statements.
  const std::string v0 = sitebench::VoPolicyText(spec, 0);
  const std::string v1 = sitebench::VoPolicyText(spec, 1);
  Check(v0 != v1, "a push changes the document");
  for (std::uint32_t active : spec.active) {
    const std::string line = sitebench::MemberExecutable(active) + "-v";
    Check(v1.find(line) == std::string::npos, "active members are unchanged");
  }

  // The oracle.
  Check(Judge(Expect::kPermit, Observed::kPermit) == Verdict::kOk, "permit ok");
  Check(Judge(Expect::kDenyPolicy, Observed::kDenyPolicy) == Verdict::kOk,
        "expected deny ok");
  Check(Judge(Expect::kDenyScope, Observed::kDenyScope) == Verdict::kOk,
        "expected scope deny ok");
  // Flipped expectations.
  Check(Judge(Expect::kPermit, Observed::kDenyPolicy) == Verdict::kFailed,
        "flipped permit -> deny is a failed op");
  Check(Judge(Expect::kDenyPolicy, Observed::kPermit) ==
            Verdict::kUnexpectedPermit,
        "flipped deny -> permit is an unexpected permit");
  Check(Judge(Expect::kDenyMint, Observed::kPermit) ==
            Verdict::kUnexpectedPermit,
        "a minted session where a deny was expected aborts");
  Check(Judge(Expect::kDenyScope, Observed::kPermit) ==
            Verdict::kUnexpectedPermit,
        "an out-of-scope block that passes aborts");
  // Wrong reason class, shed and undecodable replies are failures.
  Check(Judge(Expect::kDenyPolicy, Observed::kDenyScope) == Verdict::kFailed,
        "a deny of the wrong class fails");
  Check(Judge(Expect::kPermit, Observed::kShed) == Verdict::kFailed,
        "a shed reply fails");
  Check(Judge(Expect::kDenyPolicy, Observed::kUndecodable) == Verdict::kFailed,
        "an undecodable reply fails");
  Check(Judge(Expect::kDenyPolicy, Observed::kOtherError) == Verdict::kFailed,
        "an untyped error fails");

  // Block checks of one file.
  std::uint32_t checked = 0;
  Check(JudgeFile(Expect::kPermit, {Observed::kPermit}, &checked) ==
                Verdict::kOk &&
            checked == sitebench::kBlocksPerFile,
        "an in-scope file passes when every block passes");
  Check(JudgeFile(Expect::kPermit,
                  {Observed::kPermit, Observed::kPermit, Observed::kDenyScope},
                  &checked) == Verdict::kFailed &&
            checked == 3,
        "an in-scope file refused at a later block fails");
  Check(JudgeFile(Expect::kDenyScope, {Observed::kDenyScope}, &checked) ==
                Verdict::kOk &&
            checked == 1,
        "an out-of-scope file refused at its first block is ok");
  Check(JudgeFile(Expect::kDenyScope, {Observed::kPermit, Observed::kDenyScope},
                  &checked) == Verdict::kUnexpectedPermit,
        "an out-of-scope block let through aborts, even if a later one is "
        "refused");
  Check(JudgeFile(Expect::kDenyScope, {Observed::kOtherError}, &checked) ==
            Verdict::kFailed,
        "an out-of-scope file refused for another reason fails");

  if (failures == 0) std::printf("sitebench selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
