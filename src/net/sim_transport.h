// Discrete-event network simulator with virtual time.
//
// Why a simulator: the paper's evaluation ran on a 50-node LAN cluster. A
// reproduction on a single machine cannot observe real parallel speedup by
// running 50 threads on a few cores — wall time would serialize the very
// parallelism Figure 6c measures. Instead, SimTransport executes the *real*
// handler code (real vp-tree searches, real alignment DP) and charges each
// handler's measured CPU time to the *owning node's* virtual clock:
//
//   start(m)   = max(node_clock[to], arrival_time(m))
//   node_clock = start(m) + handler_cpu_seconds * cpu_scale + proc_overhead
//
// Messages emitted by a handler leave at the node's clock after the handler
// finished and arrive `latency + size/bandwidth` later. A query's turnaround
// is the virtual time at which the client actor receives the final response
// — exactly the makespan an N-node cluster with these CPU costs and this
// network would exhibit. The engine is single-threaded, so runs are
// reproducible (ties broken by injection sequence number).
//
// For unit tests that need bit-exact timing across machines, set
// `CostModel::measured_cpu = false`; every handler is then charged the fixed
// `proc_overhead` instead of measured time.
#pragma once

#include <cstdint>
#include <map>
#include <queue>
#include <vector>

#include "src/net/message.h"

namespace mendel::net {

struct CostModel {
  // One-way link latency (seconds) — LAN-scale default.
  double latency = 100e-6;
  // Link bandwidth (bytes/second) — 10 GbE default.
  double bandwidth = 1.25e9;
  // Fixed cost charged per handled message (dispatch, deserialize).
  double proc_overhead = 5e-6;
  // Multiplier on measured handler CPU seconds (1.0 = charge as measured).
  double cpu_scale = 1.0;
  // When false, handler CPU is not measured; only proc_overhead is charged
  // (deterministic timing for tests).
  bool measured_cpu = true;

  double transfer_delay(std::size_t bytes) const {
    return latency + static_cast<double>(bytes) / bandwidth;
  }
};

class SimTransport final : public Transport, public FaultInjector {
 public:
  explicit SimTransport(CostModel cost = {}) : cost_(cost) {}

  void register_actor(NodeId id, Actor* actor) override;

  // From inside a handler: departs at the sending node's current virtual
  // clock. From outside run(): departs at `external_now_`.
  void send(Message message) override;

  // Processes events until the queue drains; returns the final virtual
  // time (max over node clocks and deliveries).
  double run_until_idle();

  // Advances the external injection clock (used between queries so each
  // query's turnaround is measured from its own injection time).
  void set_external_time(double now) { external_now_ = now; }
  double external_time() const override { return external_now_; }

  // Quiescence is a full drain: runs the queue dry (advancing the external
  // clock to the drained horizon) and reports idle.
  bool quiesce() override {
    run_until_idle();
    return true;
  }

  double node_clock(NodeId id) const;
  NetworkStats stats() const override { return stats_; }

  // Per-query traffic attribution (see Transport). The engine is
  // single-threaded, so a plain map suffices.
  void begin_query_stats(std::uint64_t query_id) override {
    query_stats_[query_id] = {};
    last_stats_valid_ = false;  // send() memoizes a bucket pointer
  }
  NetworkStats take_query_stats(std::uint64_t query_id) override {
    auto it = query_stats_.find(query_id);
    if (it == query_stats_.end()) return {};
    NetworkStats out = it->second;
    query_stats_.erase(it);
    last_stats_valid_ = false;
    return out;
  }

  // Total measured handler CPU seconds charged so far (all nodes).
  double total_cpu_seconds() const { return total_cpu_; }

  // Schedule exploration: with a nonzero seed, every delivery time gets a
  // small deterministic jitter derived from (seed, injection sequence), so
  // messages that would arrive in near-tied order are delivered in a
  // seed-dependent permutation. Causality is preserved — a handler's
  // outbound messages still depart only after the handler finished — but
  // fan-in arrival orders, which the protocol must be insensitive to,
  // differ per seed. An interleaving-coverage analog of a race detector at
  // the protocol level: the parity suite sweeps seeds and asserts ranked
  // hits never change, printing the seed for replay when they do. Seed 0
  // (default) disables jitter and reproduces the historical schedule.
  void set_schedule_seed(std::uint64_t seed) { schedule_seed_ = seed; }
  std::uint64_t schedule_seed() const { return schedule_seed_; }

  // Fault injection (net::FaultInjector): a failed node's deliveries are
  // silently dropped and counted in dropped_messages(); drop_type_to drops
  // only one message type, leaving the node otherwise healthy. Lets tests
  // fail a node mid-dataflow — e.g. a sequence home that stops serving
  // ranged fetches after its searches succeeded.
  FaultInjector& fault_injector() override { return *this; }
  void fail_node(NodeId id) override;
  void heal_node(NodeId id) override;
  bool node_down(NodeId id) const override;
  void drop_type_to(NodeId id, std::uint32_t type) override;
  std::uint64_t dropped_messages() const override { return dropped_; }
  TransportCounters counters() const override {
    return {.dropped_messages = dropped_};
  }

 private:
  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;  // tie-breaker: FIFO among equal-time events
    Message message;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  CostModel cost_;
  std::map<NodeId, Actor*> actors_;
  std::map<NodeId, double> clocks_;
  std::map<NodeId, bool> failed_;
  std::map<NodeId, std::uint32_t> type_drops_;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  NetworkStats stats_;
  std::map<std::uint64_t, NetworkStats> query_stats_;
  // Memoized query_stats_ bucket for the current request_id (send() hot
  // path); invalidated whenever begin/take mutate the map.
  std::uint64_t last_stats_id_ = 0;
  NetworkStats* last_stats_ = nullptr;
  bool last_stats_valid_ = false;
  // Deterministic per-event delivery jitter in [0, 4*latency); see
  // set_schedule_seed().
  double schedule_jitter(std::uint64_t seq) const;

  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t schedule_seed_ = 0;
  double external_now_ = 0.0;
  double total_cpu_ = 0.0;

  // While a handler runs, its outbound messages are buffered here and
  // stamped with the handler's completion time once it returns.
  bool in_handler_ = false;
  std::vector<Message> pending_;
};

}  // namespace mendel::net
