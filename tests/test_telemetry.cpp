// Telemetry substrate: histogram quantile accuracy, span nesting, ring
// wraparound, concurrent writers, disabled-mode overhead, and the
// stage-sum-vs-processing-time consistency the benches rely on.
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/stage.h"
#include "telemetry/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "json_check.h"
#include "keygraph/key_tree.h"
#include "server/sharded_server.h"
#include "sim/experiment.h"
#include "transport/transport.h"

namespace keygraphs::telemetry {
namespace {

// Tests that toggle the global switch restore it on exit.
class EnabledGuard {
 public:
  EnabledGuard() : saved_(enabled()) {}
  ~EnabledGuard() { set_enabled(saved_); }

 private:
  bool saved_;
};

void spin_for(std::chrono::microseconds duration) {
  const auto until = std::chrono::steady_clock::now() + duration;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(Counter, AddsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Gauge, SetAddReset) {
  Gauge gauge;
  gauge.set(10);
  gauge.add(-25);
  EXPECT_EQ(gauge.value(), -15);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(Histogram, EmptyIsAllZeros) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum(), 0u);
  EXPECT_EQ(histogram.min(), 0u);
  EXPECT_EQ(histogram.max(), 0u);
  EXPECT_EQ(histogram.mean(), 0.0);
  EXPECT_EQ(histogram.p50(), 0u);
  EXPECT_TRUE(histogram.buckets().empty());
}

TEST(Histogram, SmallValuesAreExact) {
  // Below kLinearLimit every value has its own bucket, so quantiles of a
  // known distribution are exact, not approximate.
  Histogram histogram;
  for (std::uint64_t v = 0; v < 10; ++v) histogram.record(v);  // 0..9
  EXPECT_EQ(histogram.count(), 10u);
  EXPECT_EQ(histogram.sum(), 45u);
  EXPECT_EQ(histogram.min(), 0u);
  EXPECT_EQ(histogram.max(), 9u);
  EXPECT_DOUBLE_EQ(histogram.mean(), 4.5);
  EXPECT_EQ(histogram.quantile(0.1), 0u);   // 1st of 10 samples
  EXPECT_EQ(histogram.p50(), 4u);           // 5th of 10 samples
  EXPECT_EQ(histogram.p90(), 8u);           // 9th of 10 samples
  EXPECT_EQ(histogram.quantile(1.0), 9u);
}

TEST(Histogram, LargeValueQuantilesWithinRelativeErrorBound) {
  Histogram histogram;
  for (std::uint64_t v = 1; v <= 10000; ++v) histogram.record(v);
  const struct {
    double q;
    double exact;
  } cases[] = {{0.50, 5000.0}, {0.90, 9000.0}, {0.99, 9900.0}};
  for (const auto& c : cases) {
    const auto estimate = static_cast<double>(histogram.quantile(c.q));
    // The estimate is a bucket upper bound: never below the exact value,
    // and at most one sub-bucket (1/16 = 6.25%) above it.
    EXPECT_GE(estimate, c.exact) << "q=" << c.q;
    EXPECT_LE(estimate, c.exact * 1.0625) << "q=" << c.q;
  }
  EXPECT_EQ(histogram.min(), 1u);
  EXPECT_EQ(histogram.max(), 10000u);
}

TEST(Histogram, BucketLayoutInvariants) {
  // Every value maps to a bucket whose range contains it, and bucket upper
  // bounds are strictly increasing with index.
  const std::uint64_t probes[] = {0,   1,    15,   16,         17,
                                  31,  32,   100,  1000,       4095,
                                  1u << 20,  ~0ULL};
  for (std::uint64_t value : probes) {
    const std::size_t index = Histogram::bucket_index(value);
    ASSERT_LT(index, Histogram::kBucketCount) << value;
    EXPECT_LE(value, Histogram::bucket_upper(index)) << value;
    if (index > 0) {
      EXPECT_GT(value, Histogram::bucket_upper(index - 1)) << value;
    }
  }
  for (std::size_t i = 1; i < Histogram::kBucketCount; ++i) {
    ASSERT_LT(Histogram::bucket_upper(i - 1), Histogram::bucket_upper(i));
  }
}

TEST(Histogram, BucketsReportNonEmptyAscending) {
  Histogram histogram;
  histogram.record(3);
  histogram.record(3);
  histogram.record(1000);
  const std::vector<Histogram::Bucket> buckets = histogram.buckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].upper, 3u);
  EXPECT_EQ(buckets[0].count, 2u);
  EXPECT_GE(buckets[1].upper, 1000u);
  EXPECT_EQ(buckets[1].count, 1u);
}

TEST(Registry, SameNameSameMetricAndResetKeepsReferences) {
  Registry registry;
  Counter& counter = registry.counter("a.counter");
  EXPECT_EQ(&counter, &registry.counter("a.counter"));
  counter.add(7);
  registry.histogram("a.histogram").record(99);
  registry.gauge("a.gauge").set(5);

  registry.reset();
  EXPECT_EQ(counter.value(), 0u);  // cached reference still valid, zeroed
  EXPECT_EQ(registry.histogram("a.histogram").count(), 0u);
  EXPECT_EQ(registry.gauge("a.gauge").value(), 0);
  EXPECT_EQ(registry.counters().size(), 1u);  // registration survived
}

TEST(Tracer, RingBufferWrapsKeepingNewestOldestFirst) {
  Tracer tracer(8);
  for (std::uint64_t i = 0; i < 2 * 8 + 3; ++i) {
    SpanRecord span;
    span.name = "span";
    span.start_ns = i;
    tracer.record(span);
  }
  EXPECT_EQ(tracer.recorded(), 19u);
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 8u);
  // The surviving spans are the last 8 recorded (start_ns 11..18), oldest
  // first.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].start_ns, 11 + i);
  }
  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(Tracer, ScopedSpanNestingDepths) {
  EnabledGuard guard;
  set_enabled(true);
  Tracer::global().clear();
  {
    ScopedSpan outer("outer");
    {
      ScopedSpan middle("middle");
      ScopedSpan inner("inner");
    }
    ScopedSpan sibling("sibling");
  }
  const std::vector<SpanRecord> spans = Tracer::global().snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Spans are recorded at scope exit: inner, middle, sibling, outer.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 2u);
  EXPECT_STREQ(spans[1].name, "middle");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_STREQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[2].depth, 1u);
  EXPECT_STREQ(spans[3].name, "outer");
  EXPECT_EQ(spans[3].depth, 0u);
  EXPECT_EQ(spans[0].thread, spans[3].thread);
}

TEST(Stage, SelfTimeExcludesNestedScopes) {
  EnabledGuard guard;
  set_enabled(true);
  StageCollector collector;
  const auto wall_start = std::chrono::steady_clock::now();
  {
    StageScope tree_update(Stage::kTreeUpdate);
    spin_for(std::chrono::microseconds(300));
    {
      StageScope keygen(Stage::kKeygen);
      spin_for(std::chrono::microseconds(300));
    }
    spin_for(std::chrono::microseconds(300));
  }
  const double wall_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  const double tree_us = collector.us(Stage::kTreeUpdate);
  const double keygen_us = collector.us(Stage::kKeygen);
  EXPECT_GE(keygen_us, 250.0);
  EXPECT_GE(tree_us, 500.0);
  // Self time: the keygen spin must not be double-counted under
  // tree_update. Double counting would make tree_us track the full wall
  // time; correct self-time accounting leaves it at least keygen's 300us
  // spin short of the wall, whatever the scope overhead (sanitizer builds
  // inflate it).
  EXPECT_LT(tree_us, wall_us - 250.0);
  EXPECT_NEAR(collector.total_us(), tree_us + keygen_us, 1e-9);
}

TEST(Stage, InertWithoutCollector) {
  EnabledGuard guard;
  set_enabled(true);
  ASSERT_EQ(StageCollector::current(), nullptr);
  StageScope scope(Stage::kEncrypt);  // must not crash or record
}

TEST(Stage, CollectorsStack) {
  EnabledGuard guard;
  set_enabled(true);
  StageCollector outer;
  {
    StageCollector inner;
    EXPECT_EQ(StageCollector::current(), &inner);
    StageScope scope(Stage::kSign);
    spin_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(StageCollector::current(), &outer);
  EXPECT_EQ(outer.us(Stage::kSign), 0.0);  // inner swallowed the scope
}

TEST(Telemetry, ConcurrentWritersDoNotLoseUpdates) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Registry registry;
  Tracer tracer(256);
  Counter& counter = registry.counter("t.counter");
  Histogram& histogram = registry.histogram("t.histogram");

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.add(1);
        histogram.record(static_cast<std::uint64_t>(t * kPerThread + i));
        if (i % 100 == 0) {
          SpanRecord span;
          span.name = "concurrent";
          tracer.record(span);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const auto total = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(counter.value(), total);
  EXPECT_EQ(histogram.count(), total);
  EXPECT_EQ(histogram.min(), 0u);
  EXPECT_EQ(histogram.max(), total - 1);
  EXPECT_EQ(tracer.recorded(),
            static_cast<std::uint64_t>(kThreads) * (kPerThread / 100));
  EXPECT_EQ(tracer.snapshot().size(), 256u);
}

TEST(Telemetry, DisabledInstrumentationIsNearZeroCost) {
  EnabledGuard guard;
  set_enabled(false);
  constexpr int kIterations = 100000;
  const std::uint64_t start = steady_now_ns();
  for (int i = 0; i < kIterations; ++i) {
    StageCollector collector;
    StageScope scope(Stage::kEncrypt);
    ScopedSpan span("disabled");
  }
  const std::uint64_t elapsed = steady_now_ns() - start;
  // Generous bound: a disabled site is a relaxed load and a branch, so
  // collector+scope+span must average far under a microsecond even on a
  // loaded CI machine (typical: single-digit nanoseconds each).
  EXPECT_LT(static_cast<double>(elapsed) / kIterations, 1000.0);
}

TEST(Exporters, RenderKnownMetrics) {
  Registry registry;
  registry.counter("demo.events").add(3);
  registry.gauge("demo.depth").set(-2);
  registry.histogram("demo.latency_ns").record(500);

  const std::string jsonl = render_jsonl(registry);
  EXPECT_NE(jsonl.find("\"name\":\"demo.events\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"value\":3"), std::string::npos);

  const std::string prom = render_prometheus(registry);
  EXPECT_NE(prom.find("kg_demo_events 3"), std::string::npos);
  EXPECT_NE(prom.find("kg_demo_depth -2"), std::string::npos);
  EXPECT_NE(prom.find("kg_demo_latency_ns_count 1"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);

  const std::string dump = render_dump(registry);
  EXPECT_NE(dump.find("demo.events"), std::string::npos);
  EXPECT_NE(dump.find("demo.latency_ns"), std::string::npos);
}

TEST(Registry, GlobalResetClearsTheSpanRing) {
  EnabledGuard guard;
  set_enabled(true);
  { ScopedSpan span("pre.reset"); }
  ASSERT_FALSE(Tracer::global().snapshot().empty());
  Registry::global().reset();
  // A snapshot taken after the reset must not mix in earlier spans (a
  // bench resetting between phases relies on this).
  EXPECT_TRUE(Tracer::global().snapshot().empty());
  EXPECT_EQ(Tracer::global().recorded(), 0u);
}

TEST(Registry, LocalResetLeavesTheGlobalRingAlone) {
  EnabledGuard guard;
  set_enabled(true);
  Tracer::global().clear();
  { ScopedSpan span("survives"); }
  Registry local;
  local.counter("x").add(1);
  local.reset();
  EXPECT_EQ(Tracer::global().snapshot().size(), 1u);
  Tracer::global().clear();
}

TEST(Exporters, EveryJsonlLineParsesAsJson) {
  Registry registry;
  registry.counter("round.trips").add(12);
  registry.gauge("round.depth").set(-4);
  auto& histogram = registry.histogram("round.latency_ns");
  for (std::uint64_t v = 1; v <= 2000; v += 7) histogram.record(v);

  const std::string jsonl = render_jsonl(registry);
  std::size_t start = 0;
  std::size_t lines = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    const std::string_view line(jsonl.data() + start, end - start);
    if (!line.empty()) {
      ++lines;
      EXPECT_TRUE(testjson::json_valid(line)) << line;
    }
    start = end + 1;
  }
  EXPECT_EQ(lines, 3u);  // one object per metric
}

TEST(Exporters, TraceJsonlLinesParseAsJson) {
  Tracer tracer(16);
  SpanRecord span;
  span.name = "jsonl.span";
  span.start_ns = 10;
  span.duration_ns = 5;
  span.trace_id = 77;
  span.process = 3;
  tracer.record(span);
  const std::string rendered = render_trace_jsonl(tracer);
  ASSERT_FALSE(rendered.empty());
  const std::string line = rendered.substr(0, rendered.find('\n'));
  EXPECT_TRUE(testjson::json_valid(line)) << line;
  EXPECT_NE(line.find("\"trace\":77"), std::string::npos);
  EXPECT_NE(line.find("\"process\":3"), std::string::npos);
}

TEST(Exporters, ChromeTraceOfEmptyTracerIsValidJson) {
  Tracer tracer(16);
  const std::string trace = render_chrome_trace(tracer);
  EXPECT_TRUE(testjson::json_valid(trace)) << trace;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
}

TEST(Histogram, QuantilesAreMonotoneAndWithinDocumentedError) {
  Histogram spread;
  for (std::uint64_t v = 1; v <= 1000; ++v) spread.record(v);
  EXPECT_LE(spread.p50(), spread.p90());
  EXPECT_LE(spread.p90(), spread.p99());
  EXPECT_LE(spread.p99(), spread.quantile(1.0));

  // A single recorded value: every quantile reports its bucket's upper
  // bound — at least the value, and within one sub-bucket (6.25%) of it.
  Histogram single;
  const std::uint64_t value = 123456;
  single.record(value);
  for (const double q : {0.5, 0.9, 0.99, 1.0}) {
    const std::uint64_t estimate = single.quantile(q);
    EXPECT_GE(estimate, value) << q;
    EXPECT_LE(estimate, value + value / Histogram::kSubBuckets) << q;
  }
}

TEST(Exporters, PrometheusEmitsHelpAndTypeHeaders) {
  Registry registry;
  registry.counter("helped.events", "Number of helped events").add(2);
  registry.gauge("helped.depth");  // no help: only # TYPE expected
  registry.histogram("helped.latency_ns", "End-to-end latency").record(9);

  const std::string prom = render_prometheus(registry);
  const std::size_t help_at =
      prom.find("# HELP kg_helped_events Number of helped events\n");
  const std::size_t type_at = prom.find("# TYPE kg_helped_events counter\n");
  ASSERT_NE(help_at, std::string::npos);
  ASSERT_NE(type_at, std::string::npos);
  EXPECT_LT(help_at, type_at);  // HELP precedes TYPE, Prometheus style
  EXPECT_EQ(prom.find("# HELP kg_helped_depth"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE kg_helped_depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("# HELP kg_helped_latency_ns End-to-end latency"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE kg_helped_latency_ns histogram"),
            std::string::npos);
}

TEST(Exporters, PrometheusHelpEscapesBackslashAndNewline) {
  Registry registry;
  registry.counter("escaped.metric", "line one\nline two \\ done").add(1);
  const std::string prom = render_prometheus(registry);
  EXPECT_NE(
      prom.find("# HELP kg_escaped_metric line one\\nline two \\\\ done\n"),
      std::string::npos);
}

TEST(Registry, HelpTextFirstWriterWins) {
  Registry registry;
  registry.counter("owned.metric", "original description");
  registry.counter("owned.metric", "later description");
  registry.set_help("owned.metric", "even later");
  EXPECT_EQ(registry.help("owned.metric"), "original description");
  EXPECT_EQ(registry.help("never.registered"), "");
}

TEST(Telemetry, StageSumTracksMeasuredProcessingTime) {
  // The acceptance bar for the bench breakdowns: the disjoint stage times
  // must account for the operation's measured processing time. Run a small
  // signed experiment (ms-scale ops drown out timer noise) and compare.
  EnabledGuard guard;
  set_enabled(true);
  sim::ExperimentConfig config;
  config.initial_size = 32;
  config.requests = 40;
  config.suite = crypto::CryptoSuite::paper_signed();
  config.signing = rekey::SigningMode::kBatch;
  const sim::ExperimentResult result = sim::run_experiment(config);

  const double processing_us = result.all.avg_processing_ms * 1000.0;
  const double stage_sum_us = result.all.measured_stage_us();
  ASSERT_GT(processing_us, 0.0);
  ASSERT_GT(stage_sum_us, 0.0);
  const double ratio = stage_sum_us / processing_us;
  EXPECT_GT(ratio, 0.6) << "stages miss too much of the measured time";
  EXPECT_LT(ratio, 1.1) << "stages double-count the measured time";
}

// The same bar at K = 4: every operation — stitched joins and leaves, a
// multi-shard batch, resyncs — carries a breakdown from its entry call's
// collector, and the stages account for its measured time.
TEST(Telemetry, StageSumTracksProcessingTimeAtFourShards) {
  EnabledGuard guard;
  set_enabled(true);
  server::ShardedServerConfig config;
  config.shards = 4;
  config.base.rng_seed = 404;
  config.base.suite = crypto::CryptoSuite::paper_signed();
  config.base.signing = rekey::SigningMode::kBatch;
  transport::NullTransport transport;
  server::ShardedGroupKeyServer server(config, transport);
  for (UserId user = 1; user <= 32; ++user) server.join(user);
  server.stats().reset();
  // Every call below records exactly one operation; its record is the
  // last one right after the call.
  std::size_t ops = 0;
  const auto expect_send_stage = [&] {
    ASSERT_EQ(server.stats().size(), ++ops);
    EXPECT_GT(
        server.stats().last()->stage_us[static_cast<std::size_t>(Stage::kSend)],
        0.0);
  };
  for (UserId user = 100; user < 120; ++user) {
    server.join(user);
    expect_send_stage();
    server.leave(user - 90);
    expect_send_stage();
  }
  // batch() runs one operation per affected shard, in shard order; handing
  // it each shard's part of a multi-shard batch in turn runs the same
  // operations one call at a time.
  std::vector<std::vector<UserId>> joins(4);
  std::vector<std::vector<UserId>> leaves(4);
  for (const UserId user : {200, 201, 202, 203}) {
    joins[server.shard_of(user)].push_back(user);
  }
  for (const UserId user : {1, 2, 3, 4}) {
    leaves[server.shard_of(user)].push_back(user);
  }
  std::size_t shards_batched = 0;
  for (std::size_t shard = 0; shard < 4; ++shard) {
    if (joins[shard].empty() && leaves[shard].empty()) continue;
    server.batch(joins[shard], leaves[shard]);
    expect_send_stage();
    ++shards_batched;
  }
  EXPECT_GT(shards_batched, 1u);
  server.resync(5);
  expect_send_stage();

  ASSERT_GT(server.stats().size(), 40u);
  const server::Summary all = server.stats().summarize_all();
  const double processing_us = all.avg_processing_ms * 1000.0;
  const double stage_sum_us = all.measured_stage_us();
  ASSERT_GT(processing_us, 0.0);
  ASSERT_GT(stage_sum_us, 0.0);
  const double ratio = stage_sum_us / processing_us;
  EXPECT_GT(ratio, 0.6) << "stages miss too much of the measured time";
  EXPECT_LT(ratio, 1.1) << "stages double-count the measured time";
}

TEST(Telemetry, TreeShapeGaugesTrackEveryEpochPublish) {
  EnabledGuard guard;
  set_enabled(true);
  auto& registry = Registry::global();
  crypto::SecureRandom rng(91);
  KeyTree tree(3, 8, rng);  // construction publishes epoch 0
  EXPECT_EQ(registry.gauge("tree.users").value(), 0);
  EXPECT_EQ(registry.gauge("tree.keys").value(), 1);
  EXPECT_EQ(registry.gauge("tree.height").value(), 0);
  EXPECT_EQ(registry.gauge("tree.view_epoch").value(), 0);

  for (UserId user = 1; user <= 7; ++user) {
    tree.join(user, Bytes(8, static_cast<std::uint8_t>(user)));
    EXPECT_EQ(registry.gauge("tree.users").value(),
              static_cast<std::int64_t>(tree.user_count()));
    EXPECT_EQ(registry.gauge("tree.keys").value(),
              static_cast<std::int64_t>(tree.key_count()));
    EXPECT_EQ(registry.gauge("tree.height").value(),
              static_cast<std::int64_t>(tree.height()));
    EXPECT_EQ(registry.gauge("tree.view_epoch").value(),
              static_cast<std::int64_t>(tree.view()->epoch()));
  }
  tree.leave(3);
  EXPECT_EQ(registry.gauge("tree.users").value(), 6);
  EXPECT_EQ(registry.gauge("tree.view_epoch").value(), 8);
}

}  // namespace
}  // namespace keygraphs::telemetry
