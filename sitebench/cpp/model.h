// The generated site and op stream, and the outcome oracle.
//
// Everything here is a pure function of the seed: the site's members,
// its VO policy text, and op i of a workload round. Nothing here touches
// the program under test, so the self-test can check determinism and the
// oracle without building a site.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sitebench {

enum class Workload : std::uint8_t { kManage, kTransfer };

// Parses "manage" | "transfer"; false on anything else.
bool ParseWorkload(std::string_view text, Workload* out);
std::string_view WorkloadName(Workload workload);

inline constexpr std::uint32_t kMembers = 1024;   // VO member statements
inline constexpr std::uint32_t kActive = 256;     // members that send traffic
inline constexpr std::uint32_t kManagedJobs = 4096;
// manage and transfer push the VO policy after every kPushEvery
// completed ops.
inline constexpr std::uint32_t kPushEvery = 20'000;
inline constexpr std::uint32_t kFilesPerSession = 4;
inline constexpr std::uint32_t kBlocksPerFile = 64;
inline constexpr std::uint32_t kFileNames = 64;  // distinct names per subtree
inline constexpr std::string_view kHost = "fusion.anl.gov";
inline constexpr std::string_view kDataBase = "/data";
inline constexpr std::string_view kAdminDn =
    "/O=Grid/O=VO/OU=admins/CN=vo-admin";

// The expected decision of one step and the class of its reason.
enum class Expect : std::uint8_t {
  kPermit,
  kDenyPolicy,  // AUTHORIZATION_DENIED from the job manager PEP
  kDenyMint,    // data session refused at mint: no entry covers the base
  kDenyScope,   // per-block check outside the token scope: [token-scope]
};
std::string_view ExpectName(Expect expect);

// What a step actually returned, classified from outside.
enum class Observed : std::uint8_t {
  kPermit,
  kDenyPolicy,   // typed AUTHORIZATION_DENIED over the wire
  kDenyMint,     // kAuthorizationDenied naming the uncovered base
  kDenyScope,    // kAuthorizationDenied tagged [token-scope]
  kShed,         // [overload] reply from admission control
  kUndecodable,  // [transport]: the reply frame did not decode
  kOtherError,   // any other error, typed or not
};

enum class Verdict : std::uint8_t { kOk, kFailed, kUnexpectedPermit };

// The oracle: a permit where a deny was expected is a security failure,
// never a statistic; every other mismatch is a failed op.
Verdict Judge(Expect expect, Observed observed);

// Judges one file of a data session. `check_next()` checks the file's
// next block and returns what it returned. A file inside the session
// scope must pass all `blocks`; a file outside it must be refused at
// its first block, so a refusal at a later block cannot hide a block
// that was let through before it.
template <typename CheckNext>
Verdict JudgeBlocks(Expect expect, std::uint32_t blocks,
                    CheckNext&& check_next) {
  const std::uint32_t judged = expect == Expect::kPermit ? blocks : 1;
  Observed observed = Observed::kPermit;
  for (std::uint32_t b = 0; b < judged && observed == Observed::kPermit; ++b) {
    observed = check_next();
  }
  return Judge(expect, observed);
}

// Site layout drawn from the seed.
struct SiteSpec {
  std::uint64_t seed = 0;
  // Member numbers (0..kMembers-1) that send traffic, spread through
  // the policy rather than appended at its end; active index -> member.
  std::vector<std::uint32_t> active;
  // The remaining members; only their statements change on a push.
  std::vector<std::uint32_t> passive;
  // manage: owner (active index) of each pre-submitted job, and the job
  // behind each Zipf rank.
  std::vector<std::uint32_t> job_owner;
  std::vector<std::uint32_t> rank_to_job;
  std::vector<double> zipf_cdf;  // cumulative Zipf(s = 1) over ranks
};

SiteSpec MakeSiteSpec(std::uint64_t seed);

std::string MemberDn(std::uint32_t member);
std::string MemberAccount(std::uint32_t member);
std::string MemberExecutable(std::uint32_t member);
std::string MemberJobtag(std::uint32_t member);
// A member's data subtree under kDataBase, e.g. "/data/m0017".
std::string MemberSubtree(std::uint32_t member);

// The resource owner's policy: permissive for VO members, so every
// denial the oracle expects comes from the VO policy.
std::string LocalPolicyText();
// The VO policy at push `version` (0 = the initial document). Version v
// renames the executable of passive[(v - 1) % passive.size()] only.
std::string VoPolicyText(const SiteSpec& spec, std::uint64_t version);

// A well-formed start RSL for `member`'s own statement (manage's
// pre-submitted jobs).
std::string SubmitRsl(std::uint32_t member, std::uint32_t count);

// One generated operation with its expectations.
struct Op {
  // manage: requester as an identity index (kActive = the VO admin).
  // transfer: active index of the member acting.
  std::uint32_t requester = 0;
  // manage: job index. transfer: active index whose subtree is opened.
  std::uint32_t target = 0;
  Expect expect = Expect::kPermit;  // manage / transfer mint
  // transfer: file names and which files lie outside the session scope.
  std::uint32_t file[kFilesPerSession] = {};
  std::uint32_t file_owner[kFilesPerSession] = {};  // active index
  Expect file_expect[kFilesPerSession] = {};
};

inline constexpr std::uint32_t kAdminIdentity = kActive;

// Op `index` of round `round`: a pure function of (spec.seed, workload,
// round, index), so the shared op budget can be drawn by any thread in
// any order and still yield the same stream.
Op MakeOp(const SiteSpec& spec, Workload workload, std::uint32_t round,
          std::uint64_t index);

// The storage path of file `name` in `member`'s subtree.
std::string FilePath(std::uint32_t member, std::uint32_t name);

}  // namespace sitebench
