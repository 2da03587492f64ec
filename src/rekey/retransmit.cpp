#include "rekey/retransmit.h"

#include <algorithm>
#include <utility>

namespace keygraphs::rekey {

RetransmitWindow::RetransmitWindow(std::size_t capacity)
    : capacity_(capacity), ring_(capacity) {}

void RetransmitWindow::record(std::uint64_t epoch,
                              std::vector<StoredDatagram> datagrams) {
  if (capacity_ == 0) return;
  Entry& slot = ring_[epoch % capacity_];
  if (slot.epoch != epoch) count_ = std::min(count_ + 1, capacity_);
  slot.epoch = epoch;
  slot.datagrams = std::move(datagrams);
  newest_ = std::max(newest_, epoch);
}

void RetransmitWindow::clear() {
  for (Entry& slot : ring_) slot = Entry{};
  newest_ = 0;
  count_ = 0;
}

std::uint64_t RetransmitWindow::oldest() const noexcept {
  if (count_ == 0) return 0;
  return newest_ - (count_ - 1);
}

bool RetransmitWindow::addressed_to(const StoredDatagram& stored,
                                    const TreeView& view, UserId user) {
  const Recipient& to = stored.to;
  if (to.kind == Recipient::Kind::kUser) return to.user == user;
  if (!view.user_holds(user, to.include)) return false;
  return !(to.exclude.has_value() && view.user_holds(user, *to.exclude));
}

std::optional<std::vector<BytesView>> RetransmitWindow::collect(
    UserId user, std::uint64_t have_epoch) const {
  if (count_ == 0) return std::nullopt;
  if (have_epoch >= newest_) return std::vector<BytesView>{};
  if (have_epoch + 1 < oldest()) return std::nullopt;
  std::vector<BytesView> out;
  for (std::uint64_t epoch = have_epoch + 1; epoch <= newest_; ++epoch) {
    const Entry& entry = ring_[epoch % capacity_];
    // Epochs are recorded contiguously (every advance passes through
    // dispatch), so a mismatched slot means the gap straddles a hole —
    // e.g. a window resized mid-run. Degrade to resync rather than serve
    // a partial replay the client would mistake for complete.
    if (entry.epoch != epoch) return std::nullopt;
    for (const StoredDatagram& stored : entry.datagrams) {
      if (addressed_to(stored, *stored.view, user)) {
        out.push_back(BytesView{stored.datagram});
      }
    }
  }
  return out;
}

RecoveryLimiter::RecoveryLimiter(double rate, double burst)
    : rate_(rate), burst_(std::max(burst, 1.0)) {}

bool RecoveryLimiter::admit(UserId user, std::uint64_t now_us) {
  if (rate_ <= 0) return true;
  auto [it, inserted] = buckets_.try_emplace(user, Bucket{burst_, now_us});
  Bucket& bucket = it->second;
  if (!inserted && now_us > bucket.refilled_us) {
    const double elapsed_s =
        static_cast<double>(now_us - bucket.refilled_us) * 1e-6;
    bucket.tokens = std::min(burst_, bucket.tokens + elapsed_s * rate_);
    bucket.refilled_us = now_us;
  }
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

}  // namespace keygraphs::rekey
