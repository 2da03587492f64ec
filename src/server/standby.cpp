#include "server/standby.h"

#include "telemetry/convergence.h"
#include "telemetry/metrics.h"

namespace keygraphs::server {

StandbyServer::StandbyServer(ShardedServerConfig config,
                             transport::ServerTransport& transport,
                             AccessControl acl)
    : server_(std::move(config), transport, std::move(acl)) {
  if (server_.durable() == nullptr) {
    throw storage::StorageError(
        "StandbyServer: config.storage must be enabled");
  }
  // Tailing never throws for a torn tail (the primary may be mid-append),
  // but digests are verified on every replayed record: a diverging standby
  // must fail fast, not get promoted.
  options_.tolerate_torn_tail = true;
  options_.verify_digests = true;
}

std::size_t StandbyServer::poll() {
  if (promoted_) return 0;
  storage::Tail tail = server_.durable()->tail(cursor_);
  // replaying_ stays latched across the whole batch: restore() must not
  // re-anchor the (process-global, primary-shared) convergence monitor
  // while the primary is still the live timeline.
  server_.replaying_ = true;
  try {
    if (tail.snapshot && tail.snapshot_epoch > server_.epoch()) {
      server_.restore(*tail.snapshot);
    }
    for (const storage::JournalRecord& record : tail.records) {
      server_.replay_record(record, options_);
    }
  } catch (...) {
    server_.replaying_ = false;
    throw;
  }
  server_.replaying_ = false;
  if (telemetry::enabled() && !tail.records.empty()) {
    static auto& applied = telemetry::Registry::global().counter(
        "storage.standby_applied", "journal records applied by standbys");
    applied.add(tail.records.size());
  }
  return tail.records.size();
}

ShardedGroupKeyServer& StandbyServer::promote() {
  if (promoted_) return server_;
  poll();  // drain everything the dead primary made durable
  // The primary may have died mid-append; those torn bytes were never
  // dispatched, and our own appends must start on a frame boundary.
  server_.durable()->drop_tail_after(cursor_);
  promoted_ = true;
  if (telemetry::enabled()) {
    static auto& promotions = telemetry::Registry::global().counter(
        "storage.promotions", "standby-to-primary promotions");
    promotions.add(1);
    // Take over the live timeline: the monitor's publish ring belongs to
    // the dead primary; anchor it at our converged epoch so post-failover
    // publishes (and only those) are scored.
    telemetry::ConvergenceMonitor::global().restart_from(server_.epoch());
  }
  return server_;
}

}  // namespace keygraphs::server
