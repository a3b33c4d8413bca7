#include "model.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace sitebench {

namespace {

std::uint64_t SplitMix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Uniform in [0, bound) (bound is small, so modulo bias is negligible).
std::uint32_t Below(std::uint64_t& state, std::uint32_t bound) {
  return static_cast<std::uint32_t>(SplitMix(state) % bound);
}

double Unit(std::uint64_t& state) {
  return static_cast<double>(SplitMix(state) >> 11) * 0x1.0p-53;
}

// An active index other than `self`.
std::uint32_t OtherActive(std::uint64_t& state, std::uint32_t self) {
  return (self + 1 + Below(state, kActive - 1)) % kActive;
}

std::string Padded(char prefix, std::uint32_t n) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%c%04u", prefix, n);
  return buffer;
}

}  // namespace

bool ParseWorkload(std::string_view text, Workload* out) {
  if (text == "manage") *out = Workload::kManage;
  else if (text == "transfer") *out = Workload::kTransfer;
  else return false;
  return true;
}

std::string_view WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kManage: return "manage";
    case Workload::kTransfer: return "transfer";
  }
  return "?";
}

std::string_view ExpectName(Expect expect) {
  switch (expect) {
    case Expect::kPermit: return "permit";
    case Expect::kDenyPolicy: return "deny-policy";
    case Expect::kDenyMint: return "deny-mint";
    case Expect::kDenyScope: return "deny-scope";
  }
  return "?";
}

Verdict Judge(Expect expect, Observed observed) {
  if (observed == Observed::kPermit) {
    return expect == Expect::kPermit ? Verdict::kOk
                                     : Verdict::kUnexpectedPermit;
  }
  const bool match =
      (expect == Expect::kDenyPolicy && observed == Observed::kDenyPolicy) ||
      (expect == Expect::kDenyMint && observed == Observed::kDenyMint) ||
      (expect == Expect::kDenyScope && observed == Observed::kDenyScope);
  return match ? Verdict::kOk : Verdict::kFailed;
}

SiteSpec MakeSiteSpec(std::uint64_t seed) {
  SiteSpec spec;
  spec.seed = seed;
  std::uint64_t state = seed ^ 0x5173B3EC5173B3ECull;
  std::vector<std::uint32_t> members(kMembers);
  std::iota(members.begin(), members.end(), 0u);
  for (std::uint32_t i = kMembers - 1; i > 0; --i) {
    std::swap(members[i], members[Below(state, i + 1)]);
  }
  spec.active.assign(members.begin(), members.begin() + kActive);
  spec.passive.assign(members.begin() + kActive, members.end());
  std::sort(spec.passive.begin(), spec.passive.end());

  spec.job_owner.resize(kManagedJobs);
  for (std::uint32_t& owner : spec.job_owner) owner = Below(state, kActive);
  spec.rank_to_job.resize(kManagedJobs);
  std::iota(spec.rank_to_job.begin(), spec.rank_to_job.end(), 0u);
  for (std::uint32_t i = kManagedJobs - 1; i > 0; --i) {
    std::swap(spec.rank_to_job[i], spec.rank_to_job[Below(state, i + 1)]);
  }
  spec.zipf_cdf.resize(kManagedJobs);
  double sum = 0;
  for (std::uint32_t k = 0; k < kManagedJobs; ++k) {
    sum += 1.0 / (k + 1);
    spec.zipf_cdf[k] = sum;
  }
  for (double& c : spec.zipf_cdf) c /= sum;
  return spec;
}

std::string MemberDn(std::uint32_t member) {
  return "/O=Grid/O=VO/OU=members/CN=" + Padded('m', member);
}
std::string MemberAccount(std::uint32_t member) { return Padded('m', member); }
std::string MemberExecutable(std::uint32_t member) {
  return "sim" + Padded('x', member);
}
std::string MemberJobtag(std::uint32_t member) { return Padded('t', member); }
std::string MemberSubtree(std::uint32_t member) {
  return std::string{kDataBase} + "/" + Padded('m', member);
}

std::string FilePath(std::uint32_t member, std::uint32_t name) {
  return MemberSubtree(member) + "/" + Padded('f', name);
}

std::string LocalPolicyText() {
  return "/O=Grid/O=VO:\n"
         "&(action = start)(count < 64)\n"
         "&(action = information)\n"
         "&(action = cancel)\n"
         "&(action = signal)\n";
}

std::string VoPolicyText(const SiteSpec& spec, std::uint64_t version) {
  std::uint32_t renamed = kMembers;  // none
  if (version > 0) {
    renamed = spec.passive[(version - 1) % spec.passive.size()];
  }
  std::string text;
  text.reserve(kMembers * 400);
  for (std::uint32_t m = 0; m < kMembers; ++m) {
    std::string executable = MemberExecutable(m);
    if (m == renamed) executable += "-v" + std::to_string(version);
    text += MemberDn(m);
    text += ":\n&(action = start)(executable = ";
    text += executable;
    text += ")(jobtag = ";
    text += MemberJobtag(m);
    text +=
        ")(count < 8)\n"
        "&(action = information)(jobowner = self)\n"
        "&(action = signal)(jobowner = self)\n"
        "&(action = cancel)(jobowner = self)\n\n";
  }
  text += std::string{kAdminDn} +
          ":\n"
          "&(action = information)(jobtag != NULL)\n"
          "&(action = cancel)(jobtag != NULL)\n"
          "&(action = signal)(jobtag != NULL)\n\n";
  for (std::uint32_t m = 0; m < kMembers; ++m) {
    text += "scope gsiftp://";
    text += kHost;
    text += kDataBase;
    text += ":\nsubject: ";
    text += MemberDn(m);
    text += "\nobject: /";
    text += Padded('m', m);
    text += " read,write,list\nobject: /shared read\nendscope\n";
  }
  return text;
}

std::string SubmitRsl(std::uint32_t member, std::uint32_t count) {
  return "&(executable = " + MemberExecutable(member) +
         ")(directory = /home/" + MemberAccount(member) + ")(jobtag = " +
         MemberJobtag(member) + ")(count = " + std::to_string(count) +
         ")(simduration = 1000000)";
}

Op MakeOp(const SiteSpec& spec, Workload workload, std::uint32_t round,
          std::uint64_t index) {
  std::uint64_t state = spec.seed * 0x2545F4914F6CDD1Dull ^
                        (static_cast<std::uint64_t>(workload) << 56) ^
                        (static_cast<std::uint64_t>(round) << 40) ^ index;
  SplitMix(state);
  Op op;
  switch (workload) {
    case Workload::kManage: {
      const double u = Unit(state);
      const auto rank = static_cast<std::uint32_t>(
          std::lower_bound(spec.zipf_cdf.begin(), spec.zipf_cdf.end(), u) -
          spec.zipf_cdf.begin());
      op.target = spec.rank_to_job[std::min(rank, kManagedJobs - 1)];
      const std::uint32_t owner = spec.job_owner[op.target];
      const std::uint32_t who = Below(state, 100);
      if (who < 75) {
        op.requester = owner;
        op.expect = Expect::kPermit;
      } else if (who < 90) {
        op.requester = kAdminIdentity;
        op.expect = Expect::kPermit;
      } else {
        op.requester = OtherActive(state, owner);
        op.expect = Expect::kDenyPolicy;
      }
      break;
    }
    case Workload::kTransfer: {
      op.requester = Below(state, kActive);
      if (Below(state, 100) < 5) {
        op.target = OtherActive(state, op.requester);
        op.expect = Expect::kDenyMint;
      } else {
        op.target = op.requester;
        op.expect = Expect::kPermit;
      }
      for (std::uint32_t f = 0; f < kFilesPerSession; ++f) {
        op.file[f] = Below(state, kFileNames);
        if (Below(state, 32) == 0) {
          op.file_owner[f] = OtherActive(state, op.target);
          op.file_expect[f] = Expect::kDenyScope;
        } else {
          op.file_owner[f] = op.target;
          op.file_expect[f] = Expect::kPermit;
        }
      }
      break;
    }
  }
  return op;
}

}  // namespace sitebench
