#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <numeric>

#include "telemetry/metrics.h"

namespace keybench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- Samples ---------------------------------------------------------------

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = q * static_cast<double>(values_.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(rank));
  const std::size_t high = std::min(low + 1, values_.size() - 1);
  const double fraction = rank - static_cast<double>(low);
  return values_[low] + (values_[high] - values_[low]) * fraction;
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double median_of(std::vector<double> values) {
  Samples samples;
  for (const double value : values) samples.add(value);
  return samples.median();
}

// --- Output helpers ----------------------------------------------------------

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Tracer ------------------------------------------------------------------

namespace {

thread_local std::vector<std::int64_t> t_open_spans;
thread_local std::uint64_t t_request = 0;

}  // namespace

void set_current_request(std::uint64_t request) { t_request = request; }

void set_tracing(bool on) {
  Tracer::global().set_enabled(on);
  keygraphs::telemetry::set_enabled(on);
}

CacheCounters CacheCounters::read() {
  auto& registry = keygraphs::telemetry::Registry::global();
  return {registry.counter("rekey.schedule_cache.hits").value(),
          registry.counter("rekey.schedule_cache.misses").value()};
}

double cache_hit_ratio(const CacheCounters& before, const CacheCounters& after) {
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t lookups = hits + (after.misses - before.misses);
  return lookups == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(lookups);
}

double self_p50(const std::map<std::string, Samples>& self, const char* name) {
  const auto it = self.find(name);
  return it == self.end() ? 0.0 : it->second.median();
}

double unattributed_us(const Report& report, double rekey_p50,
                       double transport_us, double storage_us) {
  const double keygraph_us =
      (report.value("keygraph.join_us") + report.value("keygraph.leave_us")) /
      2.0;
  return rekey_p50 - keygraph_us - report.value("rekey.plan_us") -
         report.value("rekey.seal_us") - transport_us - storage_us;
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::open(const char* name) {
  if (!enabled()) return -1;
  const std::int64_t parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  const std::int64_t start = now_ns();
  std::int64_t index = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{name, t_request, parent, start, start});
  }
  t_open_spans.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  if (index < 0) return;
  const std::int64_t end = now_ns();
  t_open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::map<std::string, Samples> Tracer::self_us() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Samples> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.name].add(
        us_between(span.start_ns, span.end_ns - child_ns[i]));
  }
  return self;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Tracer::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << span.name
        << "\",\"request\":" << span.request << ",\"parent\":" << span.parent
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << "}\n";
  }
}

// --- ChurnGenerator ----------------------------------------------------------

std::vector<UserId> initial_members(std::size_t n) {
  std::vector<UserId> users(n);
  std::iota(users.begin(), users.end(), UserId{1});
  return users;
}

ChurnGenerator::ChurnGenerator(std::uint64_t seed, std::vector<UserId> initial,
                               UserId fresh_base, std::size_t joins_per_block,
                               std::size_t resyncs_per_block)
    : rng_(seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull),
      live_(std::move(initial)),
      next_fresh_(fresh_base),
      joins_per_block_(joins_per_block),
      resyncs_per_block_(resyncs_per_block) {
  index_.reserve(live_.size() * 2);
  for (std::size_t i = 0; i < live_.size(); ++i) index_[live_[i]] = i;
}

void ChurnGenerator::set_busy(UserId user, bool busy) {
  if (busy) {
    busy_[user] = true;
  } else {
    busy_.erase(user);
  }
}

UserId ChurnGenerator::pick_idle() {
  std::uniform_int_distribution<std::size_t> pick(0, live_.size() - 1);
  for (;;) {
    const UserId user = live_[pick(rng_)];
    if (!busy_.contains(user)) return user;
  }
}

void ChurnGenerator::remove_live(UserId user) {
  const std::size_t at = index_.at(user);
  index_[live_.back()] = at;
  live_[at] = live_.back();
  live_.pop_back();
  index_.erase(user);
  departed_.push_back(user);
}

Op ChurnGenerator::next() {
  if (block_pos_ == block_.size()) {
    block_.assign(joins_per_block_, OpKind::kJoin);
    block_.insert(block_.end(), joins_per_block_, OpKind::kLeave);
    block_.insert(block_.end(), resyncs_per_block_, OpKind::kResync);
    std::shuffle(block_.begin(), block_.end(), rng_);
    block_pos_ = 0;
  }
  Op op;
  op.kind = block_[block_pos_++];
  switch (op.kind) {
    case OpKind::kJoin:
      op.user = next_fresh_++;
      index_[op.user] = live_.size();
      live_.push_back(op.user);
      break;
    case OpKind::kLeave:
      op.user = pick_idle();
      remove_live(op.user);
      break;
    case OpKind::kResync:
      op.user = pick_idle();
      break;
  }
  return op;
}

// --- TimedTransport ----------------------------------------------------------

namespace {

using keygraphs::rekey::Recipient;

}  // namespace

keygraphs::transport::ServerTransport::Resolver TimedTransport::wrap(
    const Recipient& to, std::size_t size, const Resolver& resolve) {
  if (to.kind == Recipient::Kind::kUser) {
    wire_bytes_.fetch_add(size, std::memory_order_relaxed);
    return resolve;
  }
  return [this, size, &resolve] {
    std::vector<UserId> users;
    {
      const SpanScope span("keygraph.resolve");
      users = resolve();
    }
    resolves_.fetch_add(1, std::memory_order_relaxed);
    resolved_users_.fetch_add(users.size(), std::memory_order_relaxed);
    wire_bytes_.fetch_add(size * users.size(), std::memory_order_relaxed);
    return users;
  };
}

void TimedTransport::deliver(const Recipient& to,
                             keygraphs::BytesView datagram,
                             const Resolver& resolve) {
  {
    const SpanScope span("transport.deliver");
    datagrams_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(datagram.size(), std::memory_order_relaxed);
    if (Tracer::global().enabled()) {
      inner_.deliver(to, datagram, wrap(to, datagram.size(), resolve));
    } else {
      inner_.deliver(to, datagram, resolve);
    }
  }
  last_return_ns_.store(now_ns(), std::memory_order_release);
}

void TimedTransport::deliver_many(std::span<const OutboundDatagram> items) {
  {
    const SpanScope span("transport.deliver");
    std::uint64_t bytes = 0;
    for (const OutboundDatagram& item : items) bytes += item.datagram.size();
    datagrams_.fetch_add(items.size(), std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    if (Tracer::global().enabled()) {
      // The wrapped resolvers reference the caller's items, which outlive
      // this call (deliver_many's contract).
      std::vector<OutboundDatagram> wrapped;
      wrapped.reserve(items.size());
      for (const OutboundDatagram& item : items) {
        wrapped.push_back({item.to, item.datagram,
                           wrap(item.to, item.datagram.size(), item.resolve)});
      }
      inner_.deliver_many(wrapped);
    } else {
      inner_.deliver_many(items);
    }
  }
  last_return_ns_.store(now_ns(), std::memory_order_release);
}

TimedTransport::Counts TimedTransport::counts() const {
  Counts counts;
  counts.datagrams = datagrams_.load(std::memory_order_relaxed);
  counts.bytes = bytes_.load(std::memory_order_relaxed);
  counts.wire_bytes = wire_bytes_.load(std::memory_order_relaxed);
  counts.resolved_users = resolved_users_.load(std::memory_order_relaxed);
  counts.resolves = resolves_.load(std::memory_order_relaxed);
  return counts;
}

// --- TimedBackend ------------------------------------------------------------

void TimedBackend::append(std::size_t lane, keygraphs::BytesView frame) {
  if (!Tracer::global().enabled()) {
    inner_->append(lane, frame);
    return;
  }
  const std::int64_t start = now_ns();
  {
    const SpanScope span("storage.append");
    inner_->append(lane, frame);
  }
  const double us = us_between(start, now_ns());
  const std::lock_guard<std::mutex> lock(mutex_);
  totals_.append_us.add(us);
  totals_.bytes += frame.size();
}

void TimedBackend::sync(std::size_t lane) {
  if (!Tracer::global().enabled()) {
    inner_->sync(lane);
    return;
  }
  const std::int64_t start = now_ns();
  {
    const SpanScope span("storage.sync");
    inner_->sync(lane);
  }
  const double us = us_between(start, now_ns());
  const std::lock_guard<std::mutex> lock(mutex_);
  totals_.sync_us.add(us);
}

TimedBackend::Totals TimedBackend::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  Totals taken = std::move(totals_);
  totals_ = Totals{};
  return taken;
}

}  // namespace keybench
