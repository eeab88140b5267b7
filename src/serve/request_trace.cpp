#include "serve/request_trace.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "common/json.h"
#include "obs/trace.h"

namespace fusedml::serve {

bool RequestTraceTree::complete() const {
  if (spans.empty()) return false;
  if (spans.front().parent != -1) return false;
  for (usize i = 1; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent < 0 || static_cast<usize>(parent) >= i) return false;
  }
  return true;
}

void RequestTraceTree::write_json(std::ostream& os) const {
  JsonWriter json(os);
  json.begin_object();
  json.member("tag", tag);
  json.member("seq", seq);
  json.member("priority", to_string(priority));
  json.member("kind", to_string(kind));
  json.member("dropped_events", dropped_events);
  json.key("spans").begin_array();
  for (const RequestSpan& s : spans) {
    json.begin_object();
    json.member("name", s.name);
    json.member("ts_ms", s.ts_ms);
    json.member("dur_ms", s.dur_ms);
    json.member("parent", s.parent);
    for (const auto& [k, v] : s.num_args) json.member(k, v);
    for (const auto& [k, v] : s.str_args) json.member(k, v);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

RequestTracer::RequestTracer(std::uint64_t tag, std::uint64_t seq,
                             Priority priority, double submit_ms,
                             std::function<double()> clock)
    : tag_(tag),
      seq_(seq),
      priority_(priority),
      submit_ms_(submit_ms),
      clock_(std::move(clock)) {}

void RequestTracer::push_event(Event ev) {
  std::lock_guard lock(mutex_);
  if (sealed_ != nullptr) return;  // late event after a cancellation won
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(ev));
}

void RequestTracer::note_pickup(int worker, int attempt, double wait_ms) {
  Event ev;
  ev.name = "pickup";
  ev.ts_ms = submit_ms_ + wait_ms;
  ev.num_args.emplace_back("worker", static_cast<double>(worker));
  ev.num_args.emplace_back("attempt", static_cast<double>(attempt));
  ev.num_args.emplace_back("wait_ms", wait_ms);
  push_event(std::move(ev));
}

void RequestTracer::note_requeue(const char* why) {
  Event ev;
  ev.name = "requeue";
  ev.ts_ms = clock_();
  ev.str_args.emplace_back("why", why);
  push_event(std::move(ev));
}

void RequestTracer::note_plan(double host_ms, bool cache_hit) {
  Event ev;
  ev.name = cache_hit ? "plan:cache_hit" : "plan:build";
  ev.ts_ms = clock_();
  ev.num_args.emplace_back("host_ms", host_ms);
  push_event(std::move(ev));
}

void RequestTracer::on_dispatch_event(const kernels::DispatchEvent& event) {
  using Kind = kernels::DispatchEvent::Kind;
  Event ev;
  switch (event.kind) {
    case Kind::kFault: ev.name = "fault"; break;
    case Kind::kRetryBackoff: ev.name = "retry_backoff"; break;
    case Kind::kFallback: ev.name = "fallback"; break;
    case Kind::kBreakerSkip: ev.name = "breaker_skip"; break;
    case Kind::kSdcDetected: ev.name = "sdc_detected"; break;
    case Kind::kBudgetExhausted: ev.name = "budget_exhausted"; break;
  }
  ev.ts_ms = clock_();
  ev.dur_ms = event.modeled_ms;
  ev.str_args.emplace_back("backend", kernels::to_string(event.backend));
  if (event.kind == Kind::kFallback || event.kind == Kind::kBreakerSkip) {
    ev.str_args.emplace_back("to", kernels::to_string(event.to));
  }
  if (!event.detail.empty()) {
    ev.str_args.emplace_back("detail", event.detail);
  }
  push_event(std::move(ev));
}

namespace {
/// Mirrors a sealed tree onto the global Perfetto `serve` track so request
/// trees land in the same export as the kernel/dispatch timelines.
void emit_to_recorder(const RequestTraceTree& tree) {
  if (!obs::recorder().enabled()) return;
  for (const RequestSpan& s : tree.spans) {
    obs::TraceEvent ev;
    // Appended rather than `+`-chained: GCC 12 raises a false -Wrestrict
    // (GCC bug 105651) on `"r" + std::to_string(...)`.
    ev.name = "r";
    ev.name += std::to_string(tree.seq);
    ev.name += ':';
    ev.name += s.name;
    ev.cat = "serve";
    ev.track = obs::Track::kServe;
    ev.ts_ms = s.ts_ms;
    ev.dur_ms = s.dur_ms;
    ev.num_args = s.num_args;
    ev.str_args = s.str_args;
    ev.num_args.emplace_back("tag", static_cast<double>(tree.tag));
    obs::recorder().record(std::move(ev));
  }
}
}  // namespace

std::shared_ptr<const RequestTraceTree> RequestTracer::seal(
    const ServeOutcome& o) {
  std::lock_guard lock(mutex_);
  if (sealed_ != nullptr) return sealed_;

  auto tree = std::make_shared<RequestTraceTree>();
  tree->tag = tag_;
  tree->seq = seq_;
  tree->priority = priority_;
  tree->kind = o.kind;
  tree->dropped_events = dropped_;

  // Root: the request's whole life on the modeled timeline. Its duration
  // IS the latency the client reads — same fields, same arithmetic.
  RequestSpan root;
  root.name = std::string("request:") + to_string(o.kind);
  root.ts_ms = submit_ms_;
  root.dur_ms = o.queue_wait_ms + o.modeled_ms;
  root.parent = -1;
  root.num_args.emplace_back("queue_ms", o.queue_wait_ms);
  root.num_args.emplace_back("modeled_ms", o.modeled_ms);
  root.num_args.emplace_back("plan_host_ms", o.plan_host_ms);
  root.num_args.emplace_back("deadline_ms", o.deadline_ms);
  root.num_args.emplace_back("worker", static_cast<double>(o.worker));
  root.str_args.emplace_back("priority", to_string(priority_));
  if (!o.error.empty()) root.str_args.emplace_back("error", o.error);
  tree->spans.push_back(std::move(root));

  // Bucket children: queued, then the execution window decomposed into
  // clean exec / ABFT verify / resilience overhead. verify_ms and
  // overhead_ms() are sub-buckets already inside modeled_ms, so
  // exec = modeled - verify - overhead (clamped: a deadline thrown
  // mid-backoff can leave modeled_ms smaller than the booked overhead).
  if (o.queue_wait_ms > 0.0) {
    RequestSpan q;
    q.name = "queued";
    q.ts_ms = submit_ms_;
    q.dur_ms = o.queue_wait_ms;
    q.parent = 0;
    tree->spans.push_back(std::move(q));
  }
  if (o.worker >= 0 && o.modeled_ms > 0.0) {
    const double verify = o.resilience.verify_ms;
    const double overhead = o.resilience.overhead_ms();
    const double exec = std::max(0.0, o.modeled_ms - verify - overhead);
    double cursor = submit_ms_ + o.queue_wait_ms;
    const auto bucket = [&](const char* name, double dur) {
      if (dur <= 0.0) return;
      RequestSpan s;
      s.name = name;
      s.ts_ms = cursor;
      s.dur_ms = dur;
      s.parent = 0;
      tree->spans.push_back(std::move(s));
      cursor += dur;
    };
    bucket("exec", exec);
    bucket("verify", verify);
    bucket("resilience", overhead);
  }

  // Live events (pickups, requeues, plan notes, dispatch anomalies), in
  // the order they happened. All are children of the root.
  for (Event& ev : events_) {
    RequestSpan s;
    s.name = std::move(ev.name);
    s.ts_ms = ev.ts_ms;
    s.dur_ms = ev.dur_ms;
    s.parent = 0;
    s.num_args = std::move(ev.num_args);
    s.str_args = std::move(ev.str_args);
    tree->spans.push_back(std::move(s));
  }
  events_.clear();

  emit_to_recorder(*tree);
  sealed_ = std::move(tree);
  return sealed_;
}

}  // namespace fusedml::serve
