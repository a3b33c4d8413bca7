// One provisioned site, assembled through the program's public API, and
// the execution of one generated op against it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/audit.h"
#include "core/datapath.h"
#include "core/decision_cache.h"
#include "core/source.h"
#include "gram/obs_service.h"
#include "gram/server.h"
#include "gram/site.h"
#include "gram/wire_service.h"
#include "gridftp/storage.h"
#include "gridftp/transfer_service.h"
#include "model.h"
#include "trace.h"

namespace sitebench {

struct PushTiming {
  double parse_ms = 0;
  double swap_ms = 0;
};

// The site under test. Job traffic goes WireClient -> ObsService ->
// ServerTransport (nproc workers) -> WireEndpoint; the job manager PEP
// is CachingPolicySource -> AuditingPolicySource (ring) -> CombiningPdp
// (local + VO). Data traffic goes through FileTransferService with a
// DataPathAuthorizer over the VO source. With `traced`, timing seams sit
// at the wire transport (client and endpoint side), the callout, and
// between each pair of decision layers.
class Site {
 public:
  Site(const SiteSpec& spec, Workload workload, bool traced, int clients);
  ~Site();
  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  // Executes `op` on client thread `client`; returns the op's verdict
  // (the worst of its steps). On an unexpected permit, `detail` says
  // which step.
  Verdict Run(int client, const Op& op, std::string* detail);

  // Regenerates, parses and Replaces the VO document (the next version).
  PushTiming Push();

  gridauthz::gram::SimulatedSite& gram_site() { return site_; }
  gridauthz::core::AuditLog& audit_log() { return *audit_log_; }
  gridauthz::gram::wire::ServerTransport& server() { return *server_; }
  gridauthz::core::DataPathAuthorizer& datapath() { return *datapath_; }
  const gridauthz::gsi::Credential& member(std::uint32_t active_index) const {
    return members_[active_index];
  }
  const gridauthz::gsi::Credential& identity(std::uint32_t identity) const {
    return identity == kAdminIdentity ? admin_ : members_[identity];
  }
  const std::string& job_contact(std::uint32_t job) const {
    return job_contacts_[job];
  }
  const SiteSpec& spec() const { return spec_; }
  // Block checks made by transfer ops so far; safe while clients run.
  std::uint64_t blocks_checked() const;

 private:
  Verdict RunManage(int client, const Op& op, std::string* detail);
  Verdict RunTransfer(int client, const Op& op, std::string* detail);

  const SiteSpec& spec_;
  Workload workload_;
  gridauthz::gram::SimulatedSite site_;
  std::vector<gridauthz::gsi::Credential> members_;  // by active index
  gridauthz::gsi::Credential admin_;
  std::vector<std::string> member_dns_;  // by active index

  std::shared_ptr<gridauthz::core::StaticPolicySource> vo_;
  std::shared_ptr<gridauthz::core::AuditLog> audit_log_;
  std::shared_ptr<gridauthz::core::PolicySource> decision_top_;
  std::mutex push_mu_;
  std::uint64_t push_version_ = 0;  // guarded by push_mu_

  std::unique_ptr<gridauthz::gram::wire::WireEndpoint> endpoint_;
  std::unique_ptr<trace::EndpointSeam> endpoint_seam_;
  std::unique_ptr<gridauthz::gram::wire::ServerTransport> server_;
  std::unique_ptr<gridauthz::gram::wire::ObsService> obs_service_;
  std::unique_ptr<trace::ClientSeam> client_seam_;
  // Per client thread, one WireClient per identity (kActive members +
  // the admin): WireClient is not shared between threads.
  std::vector<std::vector<gridauthz::gram::wire::WireClient>> wire_clients_;

  std::unique_ptr<gridauthz::core::DataPathAuthorizer> datapath_;
  std::unique_ptr<gridauthz::gridftp::FileTransferService> ftp_;
  // One storage volume per client thread: SimStorage is single-threaded.
  std::vector<std::unique_ptr<gridauthz::gridftp::SimStorage>> storage_;
  // Per client thread; only its own thread writes a slot.
  std::vector<std::atomic<std::uint64_t>> blocks_checked_;

  std::vector<std::string> job_contacts_;  // manage: by job index
};

}  // namespace sitebench
