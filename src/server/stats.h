// Server-side measurement (paper Section 5).
//
// The paper reports, per join/leave request: server processing time, the
// number of rekey messages sent, their sizes (ave/min/max), encryption
// counts, and signature counts. ServerStats folds each operation into
// running totals per kind — exactly the aggregates Tables 4-5 and Figures
// 10-11 need — and keeps only the last record, so a long-running daemon
// (or a replica replaying a long journal) holds constant memory.
//
// The per-operation record also carries a per-stage time breakdown
// (telemetry::StageBreakdown), and record() mirrors every operation into
// the global telemetry registry (server.ops.*, server.processing_ns, ...),
// so the live exporters see the same numbers the paper tables aggregate.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "rekey/message.h"
#include "telemetry/stage.h"

namespace keygraphs::server {

/// One join or leave operation's measurements.
struct OpRecord {
  rekey::RekeyKind kind = rekey::RekeyKind::kJoin;
  std::size_t key_encryptions = 0;
  std::size_t signatures = 0;
  std::size_t messages = 0;        // rekey messages sent (logical sends)
  std::size_t bytes = 0;           // total wire bytes across those messages
  std::size_t min_message = 0;     // smallest message, bytes
  std::size_t max_message = 0;     // largest message, bytes
  double processing_us = 0.0;      // server processing time, microseconds
  /// Self-time per stage, microseconds (auth is measured but excluded from
  /// processing_us, matching the paper's exclusion of authentication).
  telemetry::StageBreakdown stage_us{};
};

/// Aggregate over one experiment run.
struct Summary {
  std::size_t operations = 0;
  double avg_processing_ms = 0.0;
  double avg_messages = 0.0;
  std::size_t min_messages = 0;
  std::size_t max_messages = 0;
  double avg_message_bytes = 0.0;  // averaged over messages, like Table 5
  std::size_t min_message_bytes = 0;
  std::size_t max_message_bytes = 0;
  double avg_encryptions = 0.0;
  double avg_signatures = 0.0;
  double avg_total_bytes = 0.0;    // per operation
  /// Mean self-time per stage per operation, microseconds.
  telemetry::StageBreakdown avg_stage_us{};

  /// Sum of the stages inside the measured processing window (everything
  /// but auth) — comparable against avg_processing_ms * 1000.
  [[nodiscard]] double measured_stage_us() const noexcept;
};

class ServerStats {
 public:
  /// Folds the record into its kind's totals and the overall totals,
  /// keeps it as the last record, and mirrors it into the telemetry
  /// registry.
  void record(const OpRecord& record);
  void reset();

  /// Operations recorded since construction or the last reset().
  [[nodiscard]] std::size_t size() const noexcept { return all_.operations; }
  /// The most recent operation; nullopt when none was recorded.
  [[nodiscard]] const std::optional<OpRecord>& last() const noexcept {
    return last_;
  }

  /// Aggregate over all operations of `kind`.
  [[nodiscard]] Summary summarize(rekey::RekeyKind kind) const;

  /// Aggregate over everything (the figures' "averaged over joins and
  /// leaves" series).
  [[nodiscard]] Summary summarize_all() const;

 private:
  /// Running sums, counts and extremes over a set of operations; adds in
  /// record order, so the sums equal a pass over the stored records.
  struct Totals {
    std::size_t operations = 0;
    double processing_us = 0.0;
    telemetry::StageBreakdown stage_us{};
    std::size_t messages = 0;
    std::size_t encryptions = 0;
    std::size_t signatures = 0;
    std::size_t bytes = 0;
    std::size_t min_messages = 0;
    std::size_t max_messages = 0;
    std::size_t min_message_bytes = 0;  // 0 = no message sized yet
    std::size_t max_message_bytes = 0;

    void add(const OpRecord& record);
    [[nodiscard]] Summary summary() const;
  };

  /// Indexed by RekeyKind's value (join 1 .. resync 4).
  std::array<Totals, 5> by_kind_{};
  Totals all_;
  std::optional<OpRecord> last_;
};

}  // namespace keygraphs::server
