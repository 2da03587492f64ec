#include "server/stats.h"

#include <algorithm>

#include "telemetry/metrics.h"

namespace keygraphs::server {

namespace {

const char* op_counter_name(rekey::RekeyKind kind) {
  switch (kind) {
    case rekey::RekeyKind::kJoin:
      return "server.ops.join";
    case rekey::RekeyKind::kLeave:
      return "server.ops.leave";
    case rekey::RekeyKind::kBatch:
      return "server.ops.batch";
    case rekey::RekeyKind::kResync:
      return "server.ops.resync";
  }
  return "server.ops.other";
}

/// Mirrors one operation into the global registry so the JSON/Prometheus
/// exporters track the same series the paper tables aggregate.
void publish(const OpRecord& record) {
  namespace tm = keygraphs::telemetry;
  auto& registry = tm::Registry::global();
  registry.counter(op_counter_name(record.kind)).add(1);
  static auto& processing = registry.histogram("server.processing_ns");
  static auto& per_op_messages = registry.histogram("server.messages_per_op");
  static auto& message_bytes = registry.histogram("server.message_bytes");
  static auto& rekey_messages = registry.counter("server.rekey_messages");
  static auto& rekey_bytes = registry.counter("server.rekey_bytes");
  static auto& encryptions = registry.counter("server.key_encryptions");
  static auto& signatures = registry.counter("server.signatures");
  processing.record(
      static_cast<std::uint64_t>(record.processing_us * 1000.0));
  per_op_messages.record(record.messages);
  if (record.messages > 0) {
    message_bytes.record(record.min_message);
    if (record.max_message != record.min_message) {
      message_bytes.record(record.max_message);
    }
  }
  rekey_messages.add(record.messages);
  rekey_bytes.add(record.bytes);
  encryptions.add(record.key_encryptions);
  signatures.add(record.signatures);
}

}  // namespace

double Summary::measured_stage_us() const noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < telemetry::kStageCount; ++i) {
    if (static_cast<telemetry::Stage>(i) == telemetry::Stage::kAuth) continue;
    total += avg_stage_us[i];
  }
  return total;
}

void ServerStats::Totals::add(const OpRecord& record) {
  if (operations == 0) min_messages = record.messages;
  ++operations;
  processing_us += record.processing_us;
  for (std::size_t i = 0; i < telemetry::kStageCount; ++i) {
    stage_us[i] += record.stage_us[i];
  }
  messages += record.messages;
  encryptions += record.key_encryptions;
  signatures += record.signatures;
  bytes += record.bytes;
  min_messages = std::min(min_messages, record.messages);
  max_messages = std::max(max_messages, record.messages);
  if (record.messages > 0) {
    // min_message == 0 means the producer never filled the field (a real
    // encoded datagram is never empty); folding it in would make the
    // minimum report 0 from unset fields.
    if (record.min_message > 0 &&
        (min_message_bytes == 0 || record.min_message < min_message_bytes)) {
      min_message_bytes = record.min_message;
    }
    max_message_bytes = std::max(max_message_bytes, record.max_message);
  }
}

Summary ServerStats::Totals::summary() const {
  Summary summary;
  summary.operations = operations;
  if (operations == 0) return summary;
  const auto ops = static_cast<double>(operations);
  summary.avg_processing_ms = processing_us / ops / 1000.0;
  for (std::size_t i = 0; i < telemetry::kStageCount; ++i) {
    summary.avg_stage_us[i] = stage_us[i] / ops;
  }
  summary.avg_messages = static_cast<double>(messages) / ops;
  summary.min_messages = min_messages;
  summary.max_messages = max_messages;
  summary.avg_encryptions = static_cast<double>(encryptions) / ops;
  summary.avg_signatures = static_cast<double>(signatures) / ops;
  summary.avg_total_bytes = static_cast<double>(bytes) / ops;
  summary.avg_message_bytes =
      messages == 0 ? 0.0
                    : static_cast<double>(bytes) / static_cast<double>(messages);
  summary.min_message_bytes = min_message_bytes;
  summary.max_message_bytes = max_message_bytes;
  return summary;
}

void ServerStats::record(const OpRecord& record) {
  const auto kind = static_cast<std::size_t>(record.kind);
  if (kind < by_kind_.size()) by_kind_[kind].add(record);
  all_.add(record);
  last_ = record;
  if (telemetry::enabled()) publish(record);
}

void ServerStats::reset() {
  by_kind_ = {};
  all_ = {};
  last_.reset();
}

Summary ServerStats::summarize(rekey::RekeyKind kind) const {
  const auto index = static_cast<std::size_t>(kind);
  return index < by_kind_.size() ? by_kind_[index].summary() : Summary{};
}

Summary ServerStats::summarize_all() const { return all_.summary(); }

}  // namespace keygraphs::server
