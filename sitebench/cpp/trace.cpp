#include "trace.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

namespace sitebench::trace {

namespace {

struct ThreadBuffer {
  std::uint64_t serial = 0;
  std::uint64_t next = 0;
  std::vector<Span> spans;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_buffers_mu
std::atomic<std::uint64_t> g_serial{0};
std::atomic<bool> g_enabled{false};

// One slot per client thread: the frame in flight and the op context the
// endpoint seam adopts for it. A slot is cleared before the frame's
// buffer can be freed, so a live frame address is in at most one slot.
struct alignas(64) Handoff {
  std::atomic<const char*> frame{nullptr};
  std::atomic<std::uint64_t> op{0};
  std::atomic<std::uint64_t> span{0};
};
constexpr int kSlots = 64;
std::array<Handoff, kSlots> g_handoff;

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local std::uint64_t t_parent = 0;
thread_local std::uint64_t t_op = 0;
thread_local int t_slot = -1;

ThreadBuffer& Buffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->serial = g_serial.fetch_add(1, std::memory_order_relaxed) + 1;
    buffer->spans.reserve(1 << 16);
    t_buffer = buffer.get();
    const std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(buffer));
  }
  return *t_buffer;
}

}  // namespace

std::string_view LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kWireClient: return "wire.client";
    case Layer::kWireEndpoint: return "wire.endpoint";
    case Layer::kCallout: return "gram.callout";
    case Layer::kCache: return "core.cache";
    case Layer::kAudit: return "core.audit";
    case Layer::kCombining: return "core.combining";
    case Layer::kEvaluate: return "core.evaluate";
    case Layer::kGridftpOpen: return "gridftp.open";
    case Layer::kNormalize: return "core.pathscope.normalize";
    case Layer::kCheck: return "core.captoken.check";
    case Layer::kStorage: return "gridftp.storage";
    case Layer::kCount: break;
  }
  return "?";
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_release);
}

void BindClientSlot(int slot) { t_slot = slot % kSlots; }

Scope::Scope(Layer layer) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadBuffer& buffer = Buffer();
  active_ = true;
  span_.id = (buffer.serial << 40) | ++buffer.next;
  span_.parent = t_parent;
  span_.op = t_op;
  span_.layer = layer;
  saved_parent_ = t_parent;
  saved_op_ = t_op;
  t_parent = span_.id;
  span_.start_ns = NowNs();
}

Scope::Scope(Layer layer, std::uint64_t op_id) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadBuffer& buffer = Buffer();
  active_ = true;
  span_.id = (buffer.serial << 40) | ++buffer.next;
  span_.op = op_id;
  span_.layer = layer;
  saved_parent_ = t_parent;
  saved_op_ = t_op;
  t_parent = span_.id;
  t_op = op_id;
  span_.start_ns = NowNs();
}

Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = NowNs();
  t_buffer->spans.push_back(span_);
  t_parent = saved_parent_;
  t_op = saved_op_;
}

std::vector<Span> Collect() {
  std::vector<Span> all;
  const std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
    buffer->spans.shrink_to_fit();
  }
  return all;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("id\tparent\top\tlayer\tstart_ns\tend_ns\n", out);
  for (const Span& s : spans) {
    std::fprintf(out, "%llu\t%llu\t%llu\t%.*s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 static_cast<int>(LayerName(s.layer).size()),
                 LayerName(s.layer).data(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

Breakdown Analyze(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it != index.end()) {
      child_ns[it->second] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  Breakdown out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = out.layer[static_cast<int>(spans[i].layer)];
    const double duration =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
  }
  return out;
}

std::string ClientSeam::Handle(const gridauthz::gsi::Credential& peer,
                               std::string_view frame) {
  if (!g_enabled.load(std::memory_order_relaxed) || t_slot < 0) {
    return inner_->Handle(peer, frame);
  }
  const Scope span(Layer::kWireClient);
  Handoff& slot = g_handoff[t_slot];
  slot.op.store(t_op, std::memory_order_relaxed);
  slot.span.store(t_parent, std::memory_order_relaxed);
  slot.frame.store(frame.data(), std::memory_order_release);
  std::string reply = inner_->Handle(peer, frame);
  slot.frame.store(nullptr, std::memory_order_relaxed);
  return reply;
}

std::string EndpointSeam::Handle(const gridauthz::gsi::Credential& peer,
                                 std::string_view frame) {
  if (!g_enabled.load(std::memory_order_relaxed)) {
    return inner_->Handle(peer, frame);
  }
  const std::uint64_t saved_parent = t_parent;
  const std::uint64_t saved_op = t_op;
  for (Handoff& slot : g_handoff) {
    if (slot.frame.load(std::memory_order_acquire) == frame.data()) {
      t_op = slot.op.load(std::memory_order_relaxed);
      t_parent = slot.span.load(std::memory_order_relaxed);
      break;
    }
  }
  std::string reply;
  {
    const Scope span(Layer::kWireEndpoint);
    reply = inner_->Handle(peer, frame);
  }
  t_parent = saved_parent;
  t_op = saved_op;
  return reply;
}

gridauthz::gram::AuthorizationCallout TimedCallout(
    gridauthz::gram::AuthorizationCallout inner) {
  return [inner = std::move(inner)](const gridauthz::gram::CalloutData& data) {
    const Scope span(Layer::kCallout);
    return inner(data);
  };
}

gridauthz::Expected<gridauthz::core::Decision> TimedSource::Authorize(
    const gridauthz::core::AuthorizationRequest& request) {
  const Scope span(layer_);
  return inner_->Authorize(request);
}

}  // namespace sitebench::trace
