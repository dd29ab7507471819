// Thread-backed transport: one OS thread and one blocking mailbox per actor.
//
// This is the "real concurrency" twin of SimTransport. It runs the same
// Actor code under genuine parallel execution and real memory visibility,
// which the integration tests use to confirm that the cluster protocol is
// free of ordering assumptions that only hold in the single-threaded
// simulator, and which the concurrent query pipeline (Client in
// TransportMode::kThreaded) uses to serve many in-flight queries at once.
// It reports wall-clock time, not virtual time, so it is not used for the
// scalability figures (see sim_transport.h for why).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/net/message.h"

namespace mendel::net {

class ThreadTransport final : public Transport, public FaultInjector {
 public:
  ThreadTransport() = default;
  ~ThreadTransport() override;

  ThreadTransport(const ThreadTransport&) = delete;
  ThreadTransport& operator=(const ThreadTransport&) = delete;

  // All actors must be registered before start().
  void register_actor(NodeId id, Actor* actor) override;

  // Spawns one worker thread per registered actor.
  void start() override;
  // drain_and_stop() once started; a no-op before start() and after the
  // first stop.
  void stop() override;

  // Thread-safe; may be called from handlers or from outside. Messages to
  // failed nodes are dropped (counted in dropped_messages()).
  void send(Message message) override;

  // Blocks until every mailbox is empty and no handler is running. Unlike
  // drain_and_stop(), the workers keep running — callers use this as the
  // quiescence barrier between pipeline phases (indexing, query batches).
  void wait_idle();

  // True when no message is queued or being handled. With causally chained
  // protocols (every in-flight message was sent either externally or from a
  // running handler) this can only be observed between complete dataflows,
  // so the concurrent client uses it to detect stalled queries.
  bool idle() const {
    return inflight_.load(std::memory_order_acquire) == 0;
  }

  // Transport quiescence: wait_idle() once the workers run (before start()
  // nothing is delivered, so only an empty backlog is idle) and idle().
  bool quiesce() override;
  bool poll_idle() override { return idle(); }
  TransportCounters counters() const override;

  // Blocks until every mailbox is empty and no handler is running, then
  // stops all workers. Safe to call once.
  void drain_and_stop();

  NetworkStats stats() const override;

  // Per-query traffic attribution (see Transport). Counting happens on the
  // send() hot path, so the common cases stay lock-free: an atomic count of
  // tracked queries gates the whole feature (zero → no lookup at all), and
  // tracked ids hash into a small array of mutex-guarded shard maps so
  // concurrent queries rarely contend on one lock.
  void begin_query_stats(std::uint64_t query_id) override;
  NetworkStats take_query_stats(std::uint64_t query_id) override;

  // --- fault injection (net::FaultInjector) -----------------------------
  // A failed node's inbound messages are dropped at send() time;
  // drop_type_to drops only one message type, leaving the node otherwise
  // healthy (it keeps answering everything else and is NOT node_down()).
  // heal_node() clears both.
  FaultInjector* fault_injector() override { return this; }
  void fail_node(NodeId id) override;
  void heal_node(NodeId id) override;
  bool node_down(NodeId id) const override;
  void drop_type_to(NodeId id, std::uint32_t type) override;
  std::uint64_t dropped_messages() const override {
    return dropped_.load(std::memory_order_relaxed);
  }
  // Frames whose handler raised DecodeError (malformed bytes an actor did
  // not swallow itself); subset of handler_errors(), counted separately so
  // hostile input is distinguishable from handler bugs.
  std::uint64_t decode_errors() const {
    return decode_errors_.load(std::memory_order_relaxed);
  }

  // Errors thrown by actor handlers. A throwing handler must not wedge the
  // quiescence accounting (that would deadlock drain_and_stop()), so the
  // worker loop catches, records here, and keeps serving its mailbox. Each
  // entry carries the node, the offending message's type and request id,
  // and the exception's what() so a CI failure is diagnosable from the
  // recorded list alone.
  std::vector<std::string> handler_errors() const MENDEL_EXCLUDES(errors_mu_);

 private:
  // Sentinel for Mailbox::drop_type: no type is dropped.
  static constexpr std::uint32_t kDropNone = 0xffffffffu;

  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> queue MENDEL_GUARDED_BY(mu);
    bool stop MENDEL_GUARDED_BY(mu) = false;
    std::atomic<bool> failed{false};
    std::atomic<std::uint32_t> drop_type{kDropNone};
  };

  void worker_loop(NodeId id, Actor* actor, Mailbox* mailbox);
  void record_error(std::string what) MENDEL_EXCLUDES(errors_mu_);

  std::map<NodeId, Actor*> actors_;
  std::map<NodeId, std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool stopped_ = false;

  // In-flight accounting for quiescence detection: incremented on send,
  // decremented after the handler for that message returns.
  std::atomic<std::int64_t> inflight_{0};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  // Traffic accounting is lock-free: send() is the cross-node hot path and
  // only ever bumps these counters, so relaxed atomics replace the old
  // stats mutex.
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> decode_errors_{0};

  mutable std::mutex errors_mu_;
  std::vector<std::string> errors_ MENDEL_GUARDED_BY(errors_mu_);

  // Per-query traffic buckets. send() is the cross-node hot path and a
  // tracked query routes every one of its ~thousand messages through it,
  // so attribution must not take a lock there: a tracked id claims one
  // slot in a fixed open-addressed table and senders bump its relaxed
  // atomic counters after a lock-free probe. begin/take serialize slot
  // claim and release on stats_mu_ (cold, twice per query). When the table
  // is full — batches larger than kStatSlots in flight — excess ids fall
  // back to a mutex-guarded overflow map: attribution stays exact, only
  // slower, and send() consults it only while overflow_tracked_ is
  // nonzero.
  struct StatSlot {
    std::atomic<std::uint64_t> id{0};  // 0 = free (the untracked sentinel)
    std::atomic<std::uint64_t> messages{0};
    std::atomic<std::uint64_t> bytes{0};
  };
  static constexpr std::size_t kStatSlots = 128;
  static constexpr std::size_t kStatProbe = 8;
  StatSlot* find_stat_slot(std::uint64_t query_id) {
    const std::size_t h = static_cast<std::size_t>(query_id) % kStatSlots;
    for (std::size_t p = 0; p < kStatProbe; ++p) {
      StatSlot& slot = stat_slots_[(h + p) % kStatSlots];
      if (slot.id.load(std::memory_order_acquire) == query_id) return &slot;
    }
    return nullptr;
  }
  std::array<StatSlot, kStatSlots> stat_slots_;
  std::mutex stats_mu_;
  std::unordered_map<std::uint64_t, NetworkStats> overflow_stats_
      MENDEL_GUARDED_BY(stats_mu_);
  std::atomic<std::size_t> overflow_tracked_{0};
  std::atomic<std::size_t> tracked_queries_{0};
};

}  // namespace mendel::net
