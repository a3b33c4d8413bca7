// Spans recorded by the benchmark around the program's own seams.
//
// A span is a layer name, start, end, parent span and op id. Spans stay
// in per-thread memory while a round runs and are collected after its
// threads have joined. A job op crosses threads (client -> server
// worker), so the client-side seam publishes its span and op id keyed by
// the frame it sends, and the endpoint-side seam adopts them when the
// same frame reaches it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/source.h"
#include "gram/callout.h"
#include "gram/wire_service.h"

namespace sitebench::trace {

enum class Layer : std::uint8_t {
  kOp,            // one whole op, client side (root)
  kWireClient,    // WireTransport seam under WireClient
  kWireEndpoint,  // WireTransport seam around WireEndpoint (worker)
  kCallout,       // the bound job manager authorization callout
  kCache,         // PolicySource seam over CachingPolicySource
  kAudit,         // PolicySource seam over AuditingPolicySource
  kCombining,     // PolicySource seam over CombiningPdp
  kEvaluate,      // PolicySource seam over each StaticPolicySource
  kGridftpOpen,   // FileTransferService::OpenDataSession
  kNormalize,     // FileTransferService::NormalizeDataObject
  kCheck,         // CheckBlock, over one file's blocks
  kStorage,       // SimStorage::Put
  kCount,
};
std::string_view LayerName(Layer layer);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  Layer layer = Layer::kOp;
};

std::int64_t NowNs();

// Spans are only recorded while enabled (traced rounds).
void SetEnabled(bool enabled);

// Binds the calling thread to handoff slot `slot` (client threads).
void BindClientSlot(int slot);

// RAII span on the calling thread; nests under the thread's current span.
class Scope {
 public:
  explicit Scope(Layer layer);
  // Root span of op `op_id`.
  Scope(Layer layer, std::uint64_t op_id);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_ = false;
  Span span_;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_op_ = 0;
};

// Moves every recorded span out of the thread buffers. Call only while
// no recording thread is running.
std::vector<Span> Collect();

// Writes spans as tab-separated lines (id, parent, op, layer, start_ns,
// end_ns); false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

// Per-layer totals over a set of spans. Self time is a span's duration
// minus the time its children cover.
struct LayerTotals {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};
struct Breakdown {
  LayerTotals layer[static_cast<int>(Layer::kCount)];
  const LayerTotals& operator[](Layer l) const {
    return layer[static_cast<int>(l)];
  }
};
Breakdown Analyze(const std::vector<Span>& spans);

// ---- seam decorators --------------------------------------------------

// Client side of the wire: times the round trip and publishes the op
// context for the endpoint seam.
class ClientSeam final : public gridauthz::gram::wire::WireTransport {
 public:
  explicit ClientSeam(gridauthz::gram::wire::WireTransport* inner)
      : inner_(inner) {}
  std::string Handle(const gridauthz::gsi::Credential& peer,
                     std::string_view frame) override;

 private:
  gridauthz::gram::wire::WireTransport* inner_;
};

// Server side: adopts the op context of the frame and times the handler.
class EndpointSeam final : public gridauthz::gram::wire::WireTransport {
 public:
  explicit EndpointSeam(gridauthz::gram::wire::WireTransport* inner)
      : inner_(inner) {}
  std::string Handle(const gridauthz::gsi::Credential& peer,
                     std::string_view frame) override;

 private:
  gridauthz::gram::wire::WireTransport* inner_;
};

gridauthz::gram::AuthorizationCallout TimedCallout(
    gridauthz::gram::AuthorizationCallout inner);

// Times Authorize() of `inner`; forwards name and policy generation, so
// it can sit between any two decision layers.
class TimedSource final : public gridauthz::core::PolicySource {
 public:
  TimedSource(Layer layer, std::shared_ptr<gridauthz::core::PolicySource> inner)
      : layer_(layer), inner_(std::move(inner)) {}
  const std::string& name() const override { return inner_->name(); }
  gridauthz::Expected<gridauthz::core::Decision> Authorize(
      const gridauthz::core::AuthorizationRequest& request) override;
  std::uint64_t policy_generation() const override {
    return inner_->policy_generation();
  }

 private:
  Layer layer_;
  std::shared_ptr<gridauthz::core::PolicySource> inner_;
};

}  // namespace sitebench::trace
