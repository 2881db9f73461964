#include "runtime/mailbox.hpp"

#include <chrono>
#include <sstream>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "resilience/stats.hpp"

namespace ptlr::rt::dist {

const char* peer_state_name(PeerState s) noexcept {
  switch (s) {
    case PeerState::kConnected:
      return "connected";
    case PeerState::kDraining:
      return "draining";
    case PeerState::kLost:
      return "lost";
  }
  return "unknown";
}

Mailbox::Mailbox(int rank, const resil::WatchdogConfig& watchdog)
    : rank_(rank), watchdog_(watchdog) {}

std::string Mailbox::describe(std::uint64_t tag, int from) const {
  std::ostringstream os;
  os << "rank " << rank_ << ", tag 0x" << std::hex << tag << std::dec;
  if (from >= 0) {
    os << ", from rank " << from;
    // The state distinguishes a dead-peer hang (lost) from a slow-peer
    // hang (connected) and from a peer that already finished sending
    // (draining) — three different bugs behind the same silent wait.
    if (peer_state_) os << " (" << peer_state_name(peer_state_(from)) << ")";
  }
  return os.str();
}

std::string Mailbox::describe_any(const std::vector<std::uint64_t>& tags,
                                  int from) const {
  std::string s = describe(tags.empty() ? 0 : tags.front(), from);
  if (tags.size() > 1)
    s += " +" + std::to_string(tags.size() - 1) + " more tags";
  return s;
}

void Mailbox::deposit(Envelope env) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Epoch fence: traffic from a peer that has since rejoined with a
    // newer session epoch is stale pre-crash state — discard it here so a
    // receiver can never observe a mix of old- and new-session payloads.
    if (env.from >= 0) {
      if (auto it = epoch_fence_.find(env.from);
          it != epoch_fence_.end() && env.epoch < it->second) {
        ++stale_discards_;
        return;
      }
    }
    slots_[env.tag].push(std::move(env));
  }
  cv_.notify_all();
}

void Mailbox::park(Envelope env) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    dead_letters_[env.tag].push(std::move(env));
  }
  // Notify even for a parked message: a receiver already blocked on the
  // tag must wake to run the dead-letter recovery in recv().
  cv_.notify_all();
}

Bytes Mailbox::recv(std::uint64_t tag, int from) {
  return recv_any({tag}, from).payload;
}

TaggedMessage Mailbox::recv_any(const std::vector<std::uint64_t>& tags,
                                int from) {
  PTLR_CHECK(!tags.empty(), "recv_any: empty tag set");
  // One absolute deadline for the whole receive: the CV waits below sleep
  // until a real wake (message, abort, requeue) or this point in time —
  // no periodic polling wakeups, no drift from re-deriving the remainder.
  const auto deadline_tp =
      std::chrono::steady_clock::now() + watchdog_.deadline();
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (aborted_.load(std::memory_order_acquire)) {
      std::string why =
          fail_reason_.empty() ? "communicator aborted" : fail_reason_;
      if (extra_failures_ > 0)
        why += " (+" + std::to_string(extra_failures_) +
               " earlier/later failures)";
      throw Error(why + " while waiting for a message (" +
                  describe_any(tags, from) + ")");
    }

    // Drain the slots in tag order until a message with a fresh id
    // appears; injected duplicates are discarded here.
    for (const std::uint64_t tag : tags) {
      auto it = slots_.find(tag);
      if (it == slots_.end()) continue;
      while (!it->second.empty()) {
        Envelope env = std::move(it->second.front());
        it->second.pop();
        if (delivered_.insert(env.id).second) {
          if (env.recovered_drop) {
            resil::note(resil::ResilienceEvent::kMsgRecovered,
                        describe(tag, from));
          }
          return TaggedMessage{tag, std::move(env.payload)};
        }
      }
    }

    // Dead-letter recovery: the receiver is blocked on a tag set nothing
    // fresh arrived for — exactly the condition under which a real
    // runtime's receiver would detect the gap and request retransmission.
    // Requeue every parked message across the whole set and retry the
    // drain above.
    bool requeued = false;
    for (const std::uint64_t tag : tags) {
      auto dl = dead_letters_.find(tag);
      if (dl == dead_letters_.end() || dl->second.empty()) continue;
      while (!dl->second.empty()) {
        resil::note(resil::ResilienceEvent::kMsgRecovered,
                    describe(tag, from));
        slots_[tag].push(std::move(dl->second.front()));
        dl->second.pop();
      }
      requeued = true;
    }
    if (requeued) continue;

    if (!watchdog_.enabled()) {
      cv_.wait(lock);
      continue;
    }
    // Deadline-aware wait: only declare the stall after the queues above
    // were re-checked, so a message that arrived just before the deadline
    // is still delivered rather than lost to a watchdog error.
    if (std::chrono::steady_clock::now() >= deadline_tp) {
      const std::string what =
          "watchdog: receive waited " + std::to_string(watchdog_.deadline_ms) +
          " ms with no message (" + describe_any(tags, from) + ")";
      resil::note(resil::ResilienceEvent::kWatchdogFire, what);
      throw Error(what);
    }
    cv_.wait_until(lock, deadline_tp);
  }
}

void Mailbox::abort() {
  {
    // Under mu_, like every other change to what recv_any's wait reads: a
    // receiver that has just seen the flag clear is then either still
    // holding mu_ (and sees the store) or already waiting (and gets the
    // notify), never in between.
    std::lock_guard<std::mutex> lock(mu_);
    aborted_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

void Mailbox::fail(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fail_reason_.empty())
      fail_reason_ = reason;
    else
      ++extra_failures_;  // first reason wins the text, but count the rest
  }
  abort();
}

void Mailbox::fence_epoch(int from, std::uint64_t min_epoch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& fence = epoch_fence_[from];
    if (min_epoch > fence) fence = min_epoch;
    // Purge already-queued stale deposits from that sender too: a frame
    // decoded just before the rejoin swap may still sit in a slot.
    for (auto& [tag, q] : slots_) {
      std::queue<Envelope> keep;
      while (!q.empty()) {
        Envelope env = std::move(q.front());
        q.pop();
        if (env.from == from && env.epoch < min_epoch)
          ++stale_discards_;
        else
          keep.push(std::move(env));
      }
      q = std::move(keep);
    }
  }
  cv_.notify_all();
}

long long Mailbox::stale_discards() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stale_discards_;
}

void Mailbox::set_peer_state_fn(std::function<PeerState(int)> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  peer_state_ = std::move(fn);
}

Communicator::Communicator(int nranks, const PerturbConfig& perturb,
                           const resil::FaultConfig& faults,
                           const resil::WatchdogConfig& watchdog)
    : nranks_(nranks), perturber_(perturb), injector_(faults) {
  PTLR_CHECK(nranks >= 1, "need at least one rank");
  boxes_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    boxes_.push_back(std::make_unique<Mailbox>(r, watchdog));
    // In-process peers are threads: they cannot half-fail, so every peer
    // is permanently connected.
    boxes_.back()->set_peer_state_fn(
        [](int) { return PeerState::kConnected; });
  }
}

void Communicator::send(int from, int to, std::uint64_t tag, Bytes payload) {
  PTLR_CHECK(to >= 0 && to < nranks_, "send to invalid rank");
  // Chaos mode: hold the message in flight for a moment so a later send
  // (to another tag or another rank) can overtake it.
  perturber_.maybe_delay_delivery();
  if (from != to) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.messages++;
      stats_.bytes += static_cast<long long>(payload.size());
    }
    // Observability: comm event in the sender's lane (self-sends excluded,
    // matching the Stats convention above).
    if (obs::enabled())
      obs::record_comm(from, to, static_cast<long long>(payload.size()));
  }

  Envelope env;
  env.id = next_msg_id_.fetch_add(1, std::memory_order_relaxed);
  env.tag = tag;
  env.payload = std::move(payload);
  // Fault decisions hash (tag, from, to), not the send order, so a seed
  // drops/duplicates the same messages in every schedule.
  const bool drop = injector_.drop_message(tag, from, to);
  const bool dup = !drop && injector_.duplicate_message(tag, from, to);

  Mailbox& box = *boxes_[static_cast<std::size_t>(to)];
  std::ostringstream site;
  site << "rank " << to << ", tag 0x" << std::hex << tag;
  if (drop) {
    resil::note(resil::ResilienceEvent::kMsgDrop, site.str());
    box.park(std::move(env));
  } else if (dup) {
    resil::note(resil::ResilienceEvent::kMsgDup, site.str());
    box.deposit(env);  // same id twice; receiver dedups
    box.deposit(std::move(env));
  } else {
    box.deposit(std::move(env));
  }
}

Bytes Communicator::recv(int rank, std::uint64_t tag, int from) {
  PTLR_CHECK(rank >= 0 && rank < nranks_, "recv on invalid rank");
  return boxes_[static_cast<std::size_t>(rank)]->recv(tag, from);
}

TaggedMessage Communicator::recv_any(int rank,
                                     const std::vector<std::uint64_t>& tags,
                                     int from) {
  PTLR_CHECK(rank >= 0 && rank < nranks_, "recv on invalid rank");
  return boxes_[static_cast<std::size_t>(rank)]->recv_any(tags, from);
}

void Communicator::abort() {
  for (auto& box : boxes_) box->abort();
}

Communicator::Stats Communicator::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace ptlr::rt::dist
