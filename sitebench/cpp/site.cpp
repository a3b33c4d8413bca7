#include "site.h"

#include <stdexcept>

#include "gram/pdp_callout.h"

namespace sitebench {

namespace ga = gridauthz;

namespace {

ga::gram::SiteOptions MakeSiteOptions() {
  ga::gram::SiteOptions options;
  options.host = std::string{kHost};
  options.cpu_slots = 1 << 30;  // submissions never queue for CPUs
  return options;
}

template <typename T>
T MustOk(ga::Expected<T> value, const std::string& what) {
  if (!value.ok()) {
    throw std::runtime_error(what + ": " + value.error().to_string());
  }
  return std::move(value).value();
}

void MustOk(ga::Expected<void> value, const std::string& what) {
  if (!value.ok()) {
    throw std::runtime_error(what + ": " + value.error().to_string());
  }
}

double MsSince(std::int64_t start_ns) {
  return static_cast<double>(trace::NowNs() - start_ns) / 1e6;
}

bool Contains(const std::string& text, std::string_view needle) {
  return text.find(needle) != std::string::npos;
}

// Classifies a job-path error as the client sees it.
Observed ClassifyWire(const ga::Error& error) {
  const std::string& message = error.message();
  if (Contains(message, ga::kReasonOverload)) return Observed::kShed;
  if (error.code() == ga::ErrCode::kUnavailable &&
      Contains(message, ga::kReasonTransport)) {
    return Observed::kUndecodable;
  }
  // A policy denial travels as AUTHORIZATION_DENIED and names the VO
  // source that denied (the local policy permits every VO member).
  if (error.code() == ga::ErrCode::kAuthorizationDenied &&
      message.rfind("GRAM_ERROR_AUTHORIZATION_DENIED", 0) == 0 &&
      Contains(message, "source 'vo'")) {
    return Observed::kDenyPolicy;
  }
  return Observed::kOtherError;
}

Verdict Worse(Verdict a, Verdict b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

}  // namespace

Site::Site(const SiteSpec& spec, Workload workload, bool traced, int clients)
    : spec_(spec), workload_(workload), site_(MakeSiteOptions()) {
  // Identities: the active members hold credentials, accounts and
  // grid-map entries; the VO admin only manages, so it needs neither.
  members_.reserve(kActive);
  for (std::uint32_t i = 0; i < kActive; ++i) {
    const std::uint32_t member = spec.active[i];
    member_dns_.push_back(MemberDn(member));
    MustOk(site_.AddAccount(MemberAccount(member)), "add account");
    members_.push_back(MustOk(site_.CreateUser(member_dns_.back()), "user"));
    MustOk(site_.MapUser(members_.back(), MemberAccount(member)), "map user");
  }
  admin_ = MustOk(site_.CreateUser(std::string{kAdminDn}), "admin");

  // Decision stack: cache -> audit ring -> combining(local, VO).
  vo_ = std::make_shared<ga::core::StaticPolicySource>(
      "vo", MustOk(ga::core::PolicyDocument::Parse(VoPolicyText(spec, 0)),
                   "VO policy"));
  auto local = std::make_shared<ga::core::StaticPolicySource>(
      "local", MustOk(ga::core::PolicyDocument::Parse(LocalPolicyText()),
                      "local policy"));

  auto seam = [traced](trace::Layer layer,
                       std::shared_ptr<ga::core::PolicySource> inner)
      -> std::shared_ptr<ga::core::PolicySource> {
    if (!traced) return inner;
    return std::make_shared<trace::TimedSource>(layer, std::move(inner));
  };
  auto combined = std::make_shared<ga::core::CombiningPdp>();
  combined->AddSource(seam(trace::Layer::kEvaluate, local));
  combined->AddSource(seam(trace::Layer::kEvaluate, vo_));
  audit_log_ = std::make_shared<ga::core::AuditLog>();
  auto audited = std::make_shared<ga::core::AuditingPolicySource>(
      seam(trace::Layer::kCombining, combined), audit_log_, &site_.clock());
  auto cached = std::make_shared<ga::core::CachingPolicySource>(
      seam(trace::Layer::kAudit, audited));
  decision_top_ = seam(trace::Layer::kCache, cached);
  ga::gram::AuthorizationCallout callout =
      ga::gram::MakePdpCallout(decision_top_);
  if (traced) callout = trace::TimedCallout(std::move(callout));
  site_.callouts().BindDirect(std::string{ga::gram::kJobManagerAuthzType},
                              std::move(callout));

  // Job front end (DESIGN.md §11 stack).
  endpoint_ = std::make_unique<ga::gram::wire::WireEndpoint>(
      &site_.gatekeeper(), &site_.jmis(), &site_.trust(), &site_.clock());
  ga::gram::wire::WireTransport* served = endpoint_.get();
  if (traced) {
    endpoint_seam_ = std::make_unique<trace::EndpointSeam>(served);
    served = endpoint_seam_.get();
  }
  ga::gram::wire::ServerOptions server_options;
  server_options.workers = clients;
  server_ = std::make_unique<ga::gram::wire::ServerTransport>(served,
                                                             server_options);
  ga::gram::wire::ObsServiceOptions obs_options;
  obs_options.policy = decision_top_;
  obs_options.inner = server_.get();
  obs_options.server = server_.get();
  obs_service_ = std::make_unique<ga::gram::wire::ObsService>(obs_options);
  ga::gram::wire::WireTransport* client_transport = obs_service_.get();
  if (traced) {
    client_seam_ = std::make_unique<trace::ClientSeam>(client_transport);
    client_transport = client_seam_.get();
  }
  wire_clients_.resize(clients);
  for (auto& per_thread : wire_clients_) {
    per_thread.reserve(kActive + 1);
    for (const auto& credential : members_) {
      per_thread.emplace_back(credential, client_transport);
    }
    per_thread.emplace_back(admin_, client_transport);
  }

  // Data path.
  datapath_ = std::make_unique<ga::core::DataPathAuthorizer>(
      vo_, "sitebench-data-key", &site_.clock());
  ga::gridftp::FileTransferService::Params ftp_params;
  ftp_params.host = std::string{kHost};
  ftp_params.host_credential = site_.gatekeeper().host_credential();
  ftp_params.trust = &site_.trust();
  ftp_params.gridmap = &site_.gridmap();
  ftp_params.clock = &site_.clock();
  ftp_params.datapath = datapath_.get();
  ftp_ = std::make_unique<ga::gridftp::FileTransferService>(ftp_params);
  blocks_checked_ = std::vector<std::atomic<std::uint64_t>>(clients);
  for (int i = 0; i < clients; ++i) {
    storage_.push_back(std::make_unique<ga::gridftp::SimStorage>(
        std::int64_t{1} << 50, &site_.clock()));
  }

  // manage: the long-running jobs every op asks about.
  if (workload == Workload::kManage) {
    job_contacts_.reserve(kManagedJobs);
    for (std::uint32_t job = 0; job < kManagedJobs; ++job) {
      const std::uint32_t owner = spec.job_owner[job];
      job_contacts_.push_back(MustOk(
          site_.gatekeeper().SubmitJob(
              members_[owner], SubmitRsl(spec.active[owner], 1 + job % 7)),
          "pre-submit job"));
    }
  }
}

Site::~Site() {
  // Stop the workers before anything they reach is destroyed.
  if (server_) server_->Shutdown();
}

std::uint64_t Site::blocks_checked() const {
  std::uint64_t total = 0;
  for (const auto& n : blocks_checked_) total += n.load(std::memory_order_relaxed);
  return total;
}

PushTiming Site::Push() {
  const std::lock_guard<std::mutex> lock(push_mu_);
  const std::string text = VoPolicyText(spec_, ++push_version_);
  PushTiming timing;
  std::int64_t start = trace::NowNs();
  auto document = ga::core::PolicyDocument::Parse(text);
  timing.parse_ms = MsSince(start);
  if (!document.ok()) {
    throw std::runtime_error("push: " + document.error().to_string());
  }
  start = trace::NowNs();
  vo_->Replace(std::move(document).value());
  timing.swap_ms = MsSince(start);
  return timing;
}

Verdict Site::Run(int client, const Op& op, std::string* detail) {
  switch (workload_) {
    case Workload::kManage: return RunManage(client, op, detail);
    case Workload::kTransfer: return RunTransfer(client, op, detail);
  }
  return Verdict::kFailed;
}

Verdict Site::RunManage(int client, const Op& op, std::string* detail) {
  auto reply =
      wire_clients_[client][op.requester].Status(job_contacts_[op.target]);
  Observed observed = Observed::kPermit;
  const std::string& owner_dn = member_dns_[spec_.job_owner[op.target]];
  if (!reply.ok()) {
    observed = ClassifyWire(reply.error());
  } else if (reply->job_owner != owner_dn) {
    observed = Observed::kOtherError;  // a status must name the owner
  }
  const Verdict verdict = Judge(op.expect, observed);
  if (verdict != Verdict::kOk) {
    *detail = "status of " + job_contacts_[op.target] + " by identity " +
              std::to_string(op.requester) + ": expected " +
              std::string{ExpectName(op.expect)} + ", got " +
              (reply.ok() ? "owner " + reply->job_owner
                          : reply.error().to_string());
  }
  return verdict;
}

Verdict Site::RunTransfer(int client, const Op& op, std::string* detail) {
  const std::uint32_t target_member = spec_.active[op.target];
  ga::Expected<ga::gridftp::FileTransferService::DataSession> session =
      ga::Error{ga::ErrCode::kInternal, "not opened"};
  {
    const trace::Scope span(trace::Layer::kGridftpOpen);
    session = ftp_->OpenDataSession(members_[op.requester],
                                    MemberSubtree(target_member));
  }
  Observed observed = Observed::kPermit;
  if (!session.ok()) {
    const ga::Error& error = session.error();
    observed = error.code() == ga::ErrCode::kAuthorizationDenied &&
                       Contains(error.message(), "no object entry covers")
                   ? Observed::kDenyMint
                   : Observed::kOtherError;
  }
  Verdict verdict = Judge(op.expect, observed);
  if (verdict != Verdict::kOk) {
    *detail = "data session of " + member_dns_[op.requester] + " on " +
              MemberSubtree(target_member) + ": expected " +
              std::string{ExpectName(op.expect)} + ", got " +
              (session.ok() ? "a session" : session.error().to_string());
    return verdict;
  }
  if (!session.ok()) return verdict;

  ga::gridftp::SimStorage& storage = *storage_[client];
  for (std::uint32_t f = 0; f < kFilesPerSession; ++f) {
    const std::string path =
        FilePath(spec_.active[op.file_owner[f]], op.file[f]);
    ga::Expected<std::string> object = std::string{};
    {
      const trace::Scope span(trace::Layer::kNormalize);
      object = ftp_->NormalizeDataObject(path);
    }
    if (!object.ok()) {
      *detail = "normalize " + path + ": " + object.error().to_string();
      return Verdict::kFailed;
    }
    ga::Expected<void> checked = ga::Ok();
    Verdict file_verdict;
    std::uint64_t blocks = 0;
    {
      const trace::Scope span(trace::Layer::kCheck);
      file_verdict = JudgeBlocks(op.file_expect[f], kBlocksPerFile, [&] {
        checked = ftp_->CheckBlock(&session.value(), *object,
                                   ga::core::kRightWrite);
        ++blocks;
        if (checked.ok()) return Observed::kPermit;
        return Contains(checked.error().message(), ga::kReasonTokenScope)
                   ? Observed::kDenyScope
                   : Observed::kOtherError;
      });
    }
    // Once per file: the clients' slots share a cache line.
    auto& checked_so_far = blocks_checked_[client];
    checked_so_far.store(checked_so_far.load(std::memory_order_relaxed) + blocks,
                         std::memory_order_relaxed);
    if (file_verdict != Verdict::kOk) {
      *detail = "block check of " + path + " in session on " +
                MemberSubtree(target_member) + ": expected " +
                std::string{ExpectName(op.file_expect[f])} + ", got " +
                (checked.ok() ? "permit" : checked.error().to_string());
    }
    verdict = Worse(verdict, file_verdict);
    if (file_verdict == Verdict::kUnexpectedPermit) return verdict;
    if (!checked.ok()) continue;  // refused files are not stored
    ga::Expected<void> stored = ga::Ok();
    {
      const trace::Scope span(trace::Layer::kStorage);
      stored = storage.Put(path, kBlocksPerFile, session->account);
    }
    if (!stored.ok()) {
      *detail = "store " + path + ": " + stored.error().to_string();
      verdict = Worse(verdict, Verdict::kFailed);
    }
  }
  return verdict;
}

}  // namespace sitebench
