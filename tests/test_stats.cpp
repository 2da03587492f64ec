// ServerStats aggregation — the numbers behind every reproduced table.
#include "server/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <random>
#include <vector>

namespace keygraphs::server {
namespace {

OpRecord op(rekey::RekeyKind kind, std::size_t encryptions,
            std::size_t messages, std::size_t bytes, std::size_t min_msg,
            std::size_t max_msg, double us) {
  OpRecord record;
  record.kind = kind;
  record.key_encryptions = encryptions;
  record.messages = messages;
  record.bytes = bytes;
  record.min_message = min_msg;
  record.max_message = max_msg;
  record.processing_us = us;
  return record;
}

TEST(Stats, EmptySummaryIsZeros) {
  const ServerStats stats;
  const Summary summary = stats.summarize_all();
  EXPECT_EQ(summary.operations, 0u);
  EXPECT_EQ(summary.avg_messages, 0.0);
  EXPECT_EQ(summary.min_messages, 0u);
  EXPECT_EQ(summary.min_message_bytes, 0u);
}

TEST(Stats, SplitsByKind) {
  ServerStats stats;
  stats.record(op(rekey::RekeyKind::kJoin, 6, 2, 500, 200, 300, 1000));
  stats.record(op(rekey::RekeyKind::kJoin, 8, 2, 700, 300, 400, 3000));
  stats.record(op(rekey::RekeyKind::kLeave, 12, 1, 900, 900, 900, 2000));

  const Summary joins = stats.summarize(rekey::RekeyKind::kJoin);
  EXPECT_EQ(joins.operations, 2u);
  EXPECT_DOUBLE_EQ(joins.avg_encryptions, 7.0);
  EXPECT_DOUBLE_EQ(joins.avg_processing_ms, 2.0);
  EXPECT_DOUBLE_EQ(joins.avg_total_bytes, 600.0);
  EXPECT_DOUBLE_EQ(joins.avg_message_bytes, 300.0);  // 1200 B / 4 messages
  EXPECT_EQ(joins.min_message_bytes, 200u);
  EXPECT_EQ(joins.max_message_bytes, 400u);

  const Summary leaves = stats.summarize(rekey::RekeyKind::kLeave);
  EXPECT_EQ(leaves.operations, 1u);
  EXPECT_DOUBLE_EQ(leaves.avg_messages, 1.0);

  const Summary all = stats.summarize_all();
  EXPECT_EQ(all.operations, 3u);
  EXPECT_EQ(all.max_messages, 2u);
  EXPECT_EQ(all.min_messages, 1u);
}

TEST(Stats, MessageAverageWeightsByMessageNotByOperation) {
  // Table 5 averages sizes over messages: 1 op with 10 small messages and
  // 1 op with 1 big message must not average to (small+big)/2.
  ServerStats stats;
  stats.record(op(rekey::RekeyKind::kLeave, 1, 10, 1000, 100, 100, 1));
  stats.record(op(rekey::RekeyKind::kLeave, 1, 1, 1000, 1000, 1000, 1));
  const Summary summary = stats.summarize(rekey::RekeyKind::kLeave);
  EXPECT_DOUBLE_EQ(summary.avg_message_bytes, 2000.0 / 11.0);
}

TEST(Stats, ZeroMessageOperationsHandled) {
  ServerStats stats;
  stats.record(op(rekey::RekeyKind::kLeave, 0, 0, 0, 0, 0, 5));
  const Summary summary = stats.summarize_all();
  EXPECT_EQ(summary.operations, 1u);
  EXPECT_EQ(summary.avg_message_bytes, 0.0);
  EXPECT_EQ(summary.min_messages, 0u);
}

TEST(Stats, UnsetMinMessageFieldDoesNotPoisonMinimum) {
  // Regression: an OpRecord whose messages were counted but whose
  // min_message field was never filled in (left 0 — no real encoded
  // datagram is 0 bytes) used to drag min_message_bytes down to 0.
  ServerStats stats;
  stats.record(op(rekey::RekeyKind::kLeave, 1, 2, 600, 250, 350, 1));
  OpRecord unset = op(rekey::RekeyKind::kLeave, 1, 2, 800, 0, 400, 1);
  stats.record(unset);
  const Summary summary = stats.summarize_all();
  EXPECT_EQ(summary.min_message_bytes, 250u);  // not 0
  EXPECT_EQ(summary.max_message_bytes, 400u);  // max still folds
}

TEST(Stats, ZeroMessageOpDoesNotContributeExtremes) {
  // A no-op rekey (0 messages) must leave min/max untouched rather than
  // injecting its zeroed min/max fields.
  ServerStats stats;
  stats.record(op(rekey::RekeyKind::kJoin, 2, 3, 900, 200, 500, 1));
  stats.record(op(rekey::RekeyKind::kJoin, 0, 0, 0, 0, 0, 1));
  const Summary summary = stats.summarize_all();
  EXPECT_EQ(summary.min_message_bytes, 200u);
  EXPECT_EQ(summary.max_message_bytes, 500u);
  EXPECT_EQ(summary.min_messages, 0u);  // message-count min still counts it
}

TEST(Stats, StageBreakdownAverages) {
  ServerStats stats;
  OpRecord first = op(rekey::RekeyKind::kJoin, 1, 1, 100, 100, 100, 10);
  first.stage_us[static_cast<std::size_t>(telemetry::Stage::kEncrypt)] = 4.0;
  OpRecord second = op(rekey::RekeyKind::kJoin, 1, 1, 100, 100, 100, 10);
  second.stage_us[static_cast<std::size_t>(telemetry::Stage::kEncrypt)] = 8.0;
  stats.record(first);
  stats.record(second);
  const Summary summary = stats.summarize(rekey::RekeyKind::kJoin);
  EXPECT_DOUBLE_EQ(
      summary.avg_stage_us[static_cast<std::size_t>(
          telemetry::Stage::kEncrypt)],
      6.0);
  EXPECT_DOUBLE_EQ(summary.measured_stage_us(), 6.0);
}

TEST(Stats, MeasuredStageTimeExcludesAuth) {
  ServerStats stats;
  OpRecord record = op(rekey::RekeyKind::kJoin, 1, 1, 100, 100, 100, 10);
  record.stage_us[static_cast<std::size_t>(telemetry::Stage::kAuth)] = 100.0;
  record.stage_us[static_cast<std::size_t>(telemetry::Stage::kTreeUpdate)] =
      3.0;
  record.stage_us[static_cast<std::size_t>(telemetry::Stage::kSend)] = 2.0;
  stats.record(record);
  EXPECT_DOUBLE_EQ(stats.summarize_all().measured_stage_us(), 5.0);
}

TEST(Stats, ResetClears) {
  ServerStats stats;
  stats.record(op(rekey::RekeyKind::kJoin, 1, 1, 1, 1, 1, 1));
  EXPECT_EQ(stats.size(), 1u);
  stats.reset();
  EXPECT_EQ(stats.size(), 0u);
  EXPECT_EQ(stats.summarize_all().operations, 0u);
  EXPECT_FALSE(stats.last().has_value());
}

TEST(Stats, BatchKindSeparate) {
  ServerStats stats;
  stats.record(op(rekey::RekeyKind::kBatch, 20, 3, 2000, 400, 1200, 100));
  EXPECT_EQ(stats.summarize(rekey::RekeyKind::kBatch).operations, 1u);
  EXPECT_EQ(stats.summarize(rekey::RekeyKind::kJoin).operations, 0u);
}

/// The aggregation ServerStats did when it stored every record: one pass
/// over the vector, kept here as the oracle for the running totals.
Summary vector_summary(const std::vector<OpRecord>& records,
                       std::optional<rekey::RekeyKind> kind) {
  Summary summary;
  double processing_us = 0.0;
  telemetry::StageBreakdown stage_us{};
  std::size_t messages = 0, encryptions = 0, signatures = 0, bytes = 0;
  summary.min_messages = std::numeric_limits<std::size_t>::max();
  summary.min_message_bytes = std::numeric_limits<std::size_t>::max();
  for (const OpRecord& record : records) {
    if (kind.has_value() && record.kind != *kind) continue;
    ++summary.operations;
    processing_us += record.processing_us;
    for (std::size_t i = 0; i < telemetry::kStageCount; ++i) {
      stage_us[i] += record.stage_us[i];
    }
    messages += record.messages;
    encryptions += record.key_encryptions;
    signatures += record.signatures;
    bytes += record.bytes;
    summary.min_messages = std::min(summary.min_messages, record.messages);
    summary.max_messages = std::max(summary.max_messages, record.messages);
    if (record.messages > 0) {
      if (record.min_message > 0) {
        summary.min_message_bytes =
            std::min(summary.min_message_bytes, record.min_message);
      }
      summary.max_message_bytes =
          std::max(summary.max_message_bytes, record.max_message);
    }
  }
  if (summary.operations == 0) {
    summary.min_messages = 0;
    summary.min_message_bytes = 0;
    return summary;
  }
  const auto ops = static_cast<double>(summary.operations);
  summary.avg_processing_ms = processing_us / ops / 1000.0;
  for (std::size_t i = 0; i < telemetry::kStageCount; ++i) {
    summary.avg_stage_us[i] = stage_us[i] / ops;
  }
  summary.avg_messages = static_cast<double>(messages) / ops;
  summary.avg_encryptions = static_cast<double>(encryptions) / ops;
  summary.avg_signatures = static_cast<double>(signatures) / ops;
  summary.avg_total_bytes = static_cast<double>(bytes) / ops;
  summary.avg_message_bytes =
      messages == 0 ? 0.0
                    : static_cast<double>(bytes) / static_cast<double>(messages);
  if (summary.min_message_bytes == std::numeric_limits<std::size_t>::max()) {
    summary.min_message_bytes = 0;
  }
  return summary;
}

/// Exact equality, doubles included: the running sums add in record
/// order, the same order as the oracle's pass.
void expect_identical(const Summary& actual, const Summary& expected) {
  EXPECT_EQ(actual.operations, expected.operations);
  EXPECT_EQ(actual.avg_processing_ms, expected.avg_processing_ms);
  EXPECT_EQ(actual.avg_messages, expected.avg_messages);
  EXPECT_EQ(actual.min_messages, expected.min_messages);
  EXPECT_EQ(actual.max_messages, expected.max_messages);
  EXPECT_EQ(actual.avg_message_bytes, expected.avg_message_bytes);
  EXPECT_EQ(actual.min_message_bytes, expected.min_message_bytes);
  EXPECT_EQ(actual.max_message_bytes, expected.max_message_bytes);
  EXPECT_EQ(actual.avg_encryptions, expected.avg_encryptions);
  EXPECT_EQ(actual.avg_signatures, expected.avg_signatures);
  EXPECT_EQ(actual.avg_total_bytes, expected.avg_total_bytes);
  EXPECT_EQ(actual.avg_stage_us, expected.avg_stage_us);
}

TEST(Stats, RunningTotalsMatchTheStoredRecordOracle) {
  // A seeded mix of every kind, zero-message operations, and records
  // whose min_message was never filled in; checked after every record.
  std::mt19937_64 rng(1998);
  ServerStats stats;
  std::vector<OpRecord> records;
  const rekey::RekeyKind kinds[] = {
      rekey::RekeyKind::kJoin, rekey::RekeyKind::kLeave,
      rekey::RekeyKind::kBatch, rekey::RekeyKind::kResync};
  for (int i = 0; i < 400; ++i) {
    OpRecord record;
    record.kind = kinds[rng() % 4];
    record.messages = rng() % 5 == 0 ? 0 : 1 + rng() % 40;
    record.key_encryptions = rng() % 64;
    record.signatures = record.messages == 0 ? 0 : rng() % 3;
    record.min_message = record.messages == 0 || rng() % 6 == 0
                             ? 0
                             : 40 + rng() % 200;
    record.max_message =
        record.messages == 0 ? 0 : record.min_message + rng() % 900;
    record.bytes = record.messages * (record.min_message + 1);
    record.processing_us = static_cast<double>(rng() % 100000) / 7.0;
    for (double& stage : record.stage_us) {
      stage = static_cast<double>(rng() % 10000) / 3.0;
    }
    stats.record(record);
    records.push_back(record);
    ASSERT_EQ(stats.size(), records.size());
    ASSERT_TRUE(stats.last().has_value());
    EXPECT_EQ(stats.last()->processing_us, record.processing_us);
    expect_identical(stats.summarize_all(),
                     vector_summary(records, std::nullopt));
    for (const rekey::RekeyKind kind : kinds) {
      expect_identical(stats.summarize(kind), vector_summary(records, kind));
    }
  }
  stats.reset();
  EXPECT_FALSE(stats.last().has_value());
  expect_identical(stats.summarize_all(), vector_summary({}, std::nullopt));
}

}  // namespace
}  // namespace keygraphs::server
