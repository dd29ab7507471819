#include "src/net/thread_transport.h"

#include <chrono>

#include "src/common/error.h"

namespace mendel::net {

ThreadTransport::~ThreadTransport() {
  stop();
}

void ThreadTransport::register_actor(NodeId id, Actor* actor) {
  require(actor != nullptr, "ThreadTransport: null actor");
  require(!started_, "ThreadTransport: register after start()");
  require(!actors_.contains(id),
          "ThreadTransport: duplicate actor id " + std::to_string(id));
  actors_[id] = actor;
  mailboxes_[id] = std::make_unique<Mailbox>();
}

void ThreadTransport::start() {
  require(!started_, "ThreadTransport: started twice");
  started_ = true;
  workers_.reserve(actors_.size());
  for (auto& [id, actor] : actors_) {
    Mailbox* mailbox = mailboxes_.at(id).get();
    workers_.emplace_back(
        [this, id = id, actor = actor, mailbox] {
          worker_loop(id, actor, mailbox);
        });
  }
}

void ThreadTransport::send(Message message) {
  auto it = mailboxes_.find(message.to);
  if (it == mailboxes_.end()) {
    throw ProtocolError("ThreadTransport: send to unregistered node " +
                        std::to_string(message.to));
  }
  Mailbox* mailbox = it->second.get();
  // The sender pays the traffic either way (parity with SimTransport, which
  // counts at send and drops at delivery).
  messages_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(message.wire_size(), std::memory_order_relaxed);
  // Per-query attribution only when someone registered a query: the atomic
  // gate keeps the untracked hot path free of locks and hash lookups.
  if (message.request_id != 0 &&
      tracked_queries_.load(std::memory_order_acquire) != 0) {
    if (StatSlot* slot = find_stat_slot(message.request_id)) {
      slot->messages.fetch_add(1, std::memory_order_relaxed);
      slot->bytes.fetch_add(message.wire_size(), std::memory_order_relaxed);
    } else if (overflow_tracked_.load(std::memory_order_acquire) != 0) {
      std::lock_guard lock(stats_mu_);
      auto stats_it = overflow_stats_.find(message.request_id);
      if (stats_it != overflow_stats_.end()) {
        stats_it->second.messages += 1;
        stats_it->second.bytes += message.wire_size();
      }
    }
  }
  if (mailbox->failed.load(std::memory_order_relaxed) ||
      mailbox->drop_type.load(std::memory_order_relaxed) == message.type) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard lock(mailbox->mu);
    mailbox->queue.push_back(std::move(message));
  }
  mailbox->cv.notify_one();
}

void ThreadTransport::record_error(std::string what) {
  std::lock_guard lock(errors_mu_);
  errors_.push_back(std::move(what));
}

std::vector<std::string> ThreadTransport::handler_errors() const {
  std::lock_guard lock(errors_mu_);
  return errors_;
}

void ThreadTransport::worker_loop(NodeId id, Actor* actor, Mailbox* mailbox) {
  for (;;) {
    Message message;
    {
      // Explicit wait loop (not a predicate lambda) so Clang's
      // thread-safety analysis can see queue/stop accessed under mu.
      std::unique_lock lock(mailbox->mu);
      while (!mailbox->stop && mailbox->queue.empty()) mailbox->cv.wait(lock);
      if (mailbox->queue.empty()) return;  // stop && drained
      message = std::move(mailbox->queue.front());
      mailbox->queue.pop_front();
    }
    const double now =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    Context ctx(this, id, now);
    // A throwing handler must still decrement inflight_, or drain_and_stop()
    // would wait forever on a count that can no longer reach zero. Record
    // the failure — with the message's identity, so the error list alone
    // pinpoints the offending traffic — and keep serving the mailbox.
    const std::string origin = "node " + std::to_string(id) + " handling " +
                               describe(message) + ": ";
    try {
      actor->handle(message, ctx);
    } catch (const DecodeError& e) {
      // A malformed frame an actor did not swallow itself (StorageNode
      // counts and drops its own; this backstop covers every other actor,
      // e.g. the client's reply handler). Counted separately so operators
      // can tell hostile bytes from handler bugs.
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      record_error(origin + e.what());
    } catch (const std::exception& e) {
      record_error(origin + e.what());
    } catch (...) {
      record_error(origin + "unknown (non-std::exception) handler error");
    }
    if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard lock(idle_mu_);
      idle_cv_.notify_all();
    }
  }
}

void ThreadTransport::wait_idle() {
  require(started_, "ThreadTransport: wait_idle before start()");
  std::unique_lock lock(idle_mu_);
  idle_cv_.wait(lock, [this] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadTransport::stop() {
  if (started_ && !stopped_) drain_and_stop();
}

bool ThreadTransport::quiesce() {
  if (!started_) return idle();
  wait_idle();
  return true;
}

TransportCounters ThreadTransport::counters() const {
  TransportCounters out;
  out.dropped_messages = dropped_messages();
  out.handler_errors = handler_errors().size();
  out.decode_errors = decode_errors();
  return out;
}

void ThreadTransport::drain_and_stop() {
  require(started_, "ThreadTransport: drain before start()");
  require(!stopped_, "ThreadTransport: drained twice");
  wait_idle();
  for (auto& [id, mailbox] : mailboxes_) {
    std::lock_guard lock(mailbox->mu);
    mailbox->stop = true;
    mailbox->cv.notify_all();
  }
  for (auto& worker : workers_) worker.join();
  stopped_ = true;
}

void ThreadTransport::begin_query_stats(std::uint64_t query_id) {
  if (query_id == 0) return;  // 0 is the "untracked" sentinel in send()
  std::lock_guard lock(stats_mu_);
  if (find_stat_slot(query_id) != nullptr ||
      overflow_stats_.contains(query_id)) {
    return;  // already tracked
  }
  const std::size_t h = static_cast<std::size_t>(query_id) % kStatSlots;
  for (std::size_t p = 0; p < kStatProbe; ++p) {
    StatSlot& slot = stat_slots_[(h + p) % kStatSlots];
    // Only begin/take mutate ids, both under stats_mu_, so a plain check
    // suffices; the release store publishes the zeroed counters to the
    // lock-free readers in send().
    if (slot.id.load(std::memory_order_relaxed) != 0) continue;
    slot.messages.store(0, std::memory_order_relaxed);
    slot.bytes.store(0, std::memory_order_relaxed);
    slot.id.store(query_id, std::memory_order_release);
    tracked_queries_.fetch_add(1, std::memory_order_release);
    return;
  }
  overflow_stats_.emplace(query_id, NetworkStats{});
  overflow_tracked_.fetch_add(1, std::memory_order_release);
  tracked_queries_.fetch_add(1, std::memory_order_release);
}

NetworkStats ThreadTransport::take_query_stats(std::uint64_t query_id) {
  std::lock_guard lock(stats_mu_);
  if (StatSlot* slot = find_stat_slot(query_id)) {
    // The caller settles the query before taking its stats, so no send()
    // for this id races the release of the slot.
    NetworkStats out;
    out.messages = slot->messages.load(std::memory_order_relaxed);
    out.bytes = slot->bytes.load(std::memory_order_relaxed);
    slot->id.store(0, std::memory_order_release);
    tracked_queries_.fetch_sub(1, std::memory_order_release);
    return out;
  }
  auto it = overflow_stats_.find(query_id);
  if (it == overflow_stats_.end()) return {};
  NetworkStats out = it->second;
  overflow_stats_.erase(it);
  overflow_tracked_.fetch_sub(1, std::memory_order_release);
  tracked_queries_.fetch_sub(1, std::memory_order_release);
  return out;
}

NetworkStats ThreadTransport::stats() const {
  NetworkStats stats;
  stats.messages = messages_.load(std::memory_order_relaxed);
  stats.bytes = bytes_.load(std::memory_order_relaxed);
  return stats;
}

void ThreadTransport::fail_node(NodeId id) {
  auto it = mailboxes_.find(id);
  require(it != mailboxes_.end(), "ThreadTransport: fail unknown node");
  it->second->failed.store(true, std::memory_order_relaxed);
}

void ThreadTransport::heal_node(NodeId id) {
  auto it = mailboxes_.find(id);
  require(it != mailboxes_.end(), "ThreadTransport: heal unknown node");
  it->second->failed.store(false, std::memory_order_relaxed);
  it->second->drop_type.store(kDropNone, std::memory_order_relaxed);
}

void ThreadTransport::drop_type_to(NodeId id, std::uint32_t type) {
  auto it = mailboxes_.find(id);
  require(it != mailboxes_.end(), "ThreadTransport: drop to unknown node");
  it->second->drop_type.store(type, std::memory_order_relaxed);
}

bool ThreadTransport::node_down(NodeId id) const {
  auto it = mailboxes_.find(id);
  return it != mailboxes_.end() &&
         it->second->failed.load(std::memory_order_relaxed);
}

}  // namespace mendel::net
