// Message envelope and actor interfaces of the Mendel cluster runtime.
//
// Mendel's network overlay is a zero-hop DHT (paper §IV-C): every node knows
// the address of every other node, so a message always travels exactly one
// logical hop. The runtime below models that as a flat actor space: each
// storage node (and each client) is an Actor addressed by NodeId, and
// Transport implementations deliver typed, serialized envelopes between
// them.
//
// Two transports exist (construct via transport_factory.h):
//   * SimTransport (sim_transport.h)     — deterministic discrete-event
//     engine with virtual time; the primary runtime, the one the benchmark
//     figures are measured on, and the results oracle.
//   * SocketTransport (socket_transport.h) — real length-prefixed frames
//     over TCP or Unix-domain sockets; the multi-process deployment
//     runtime behind the mendel-node daemon, and the one the
//     real-concurrency tests run on (several daemons in one process).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/codec.h"
#include "src/net/fault.h"

namespace mendel::net {

// Reserved id for client endpoints (a client is just an actor that lives
// outside the storage keyspace).
inline constexpr NodeId kClientNode = 0xfffffff0u;

struct Message {
  NodeId from = 0;
  NodeId to = 0;
  // Application-defined message type tag (see src/mendel/protocol.h).
  std::uint32_t type = 0;
  // Correlation id: responses carry the request's id so coordinators can
  // match fan-out replies to pending queries.
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;

  std::size_t wire_size() const {
    // Envelope header (from/to/type/request_id/len) + payload.
    return 24 + payload.size();
  }
};

// One-line human-readable identity of a message (type, request id, sender,
// payload size) for error reports and logs. The type is printed numerically
// because the net layer is application-agnostic (see src/mendel/protocol.h
// for the mendel cluster's type names).
std::string describe(const Message& message);

class Transport;

// Handler-side view of the runtime: lets an actor reply or fan out further
// messages and observe its own clock.
class Context {
 public:
  Context(Transport* transport, NodeId self, double now,
          bool virtual_time = false)
      : transport_(transport), self_(self), now_(now),
        virtual_time_(virtual_time) {}

  NodeId self() const { return self_; }

  // Current time in seconds: virtual time under SimTransport, wall time
  // under SocketTransport.
  double now() const { return now_; }

  // True under the simulator, where now() is virtual and measuring wall
  // durations would break run-to-run determinism (trace spans record
  // duration 0 instead).
  bool virtual_time() const { return virtual_time_; }

  void send(NodeId to, std::uint32_t type, std::uint64_t request_id,
            std::vector<std::uint8_t> payload);

 private:
  Transport* transport_;
  NodeId self_;
  double now_;
  bool virtual_time_;
};

class Actor {
 public:
  virtual ~Actor() = default;
  virtual void handle(const Message& message, Context& ctx) = 0;
};

// Convenience adapter so tests and clients can register a lambda.
class FunctionActor : public Actor {
 public:
  using Fn = std::function<void(const Message&, Context&)>;
  explicit FunctionActor(Fn fn) : fn_(std::move(fn)) {}
  void handle(const Message& message, Context& ctx) override {
    fn_(message, ctx);
  }

 private:
  Fn fn_;
};

// Aggregate transfer statistics (drives the network columns of the bench
// tables).
struct NetworkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

// Fault and health counters of one transport. Every runtime fills the same
// struct; a count a runtime cannot incur stays 0 (the simulator has no
// frames, connections or heartbeats, and rethrows handler errors).
struct TransportCounters {
  // Messages dropped because the destination was failed or unreachable.
  std::uint64_t dropped_messages = 0;
  // Exceptions actor handlers raised (the worker kept serving).
  std::uint64_t handler_errors = 0;
  // Frames an actor rejected with DecodeError, plus framing-layer errors.
  std::uint64_t decode_errors = 0;
  // Connections dropped because the byte stream itself was malformed.
  std::uint64_t frame_errors = 0;
  // Successful redials of a previously connected peer.
  std::uint64_t reconnects = 0;
  // Peers the heartbeat monitor declared down (transition count).
  std::uint64_t heartbeats_missed = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Must be called before any traffic involving `id` flows.
  virtual void register_actor(NodeId id, Actor* actor) = 0;

  // Enqueues a message for delivery (called by Context::send and by
  // external injectors).
  virtual void send(Message message) = 0;

  virtual NetworkStats stats() const = 0;

  // --- lifecycle and quiescence ------------------------------------------
  // The owner drives every runtime through these calls alone. The defaults
  // describe a transport that needs no threads and can prove nothing about
  // the cluster: SimTransport proves quiescence, and SocketTransport, which
  // sees only its own process, keeps the quiesce() default.

  // Begins delivery; every local actor must be registered first.
  virtual void start() {}
  // Drains local work and stops delivery. Idempotent, and a no-op before
  // start().
  virtual void stop() {}
  // Blocks until no message is queued or being handled anywhere in the
  // cluster and returns true; returns false at once when the transport
  // cannot prove that (the caller then needs an explicit barrier or a
  // deadline). The simulator, which only advances when driven, runs its
  // queue dry.
  virtual bool quiesce() { return false; }
  // The clock that stamps query injection and reply arrival, in seconds:
  // virtual time under the simulator, steady_clock otherwise.
  virtual double external_time() const;
  virtual TransportCounters counters() const = 0;

  // Fault-injection capability (src/net/fault.h).
  virtual FaultInjector& fault_injector() = 0;

  // --- per-query traffic attribution ------------------------------------
  // Opt-in exact accounting: after begin_query_stats(id), every message
  // whose request_id equals `id` is also counted into a per-query bucket
  // until take_query_stats(id) removes and returns it (an empty bucket for
  // an id never begun). Because the query dataflow reuses the query id as
  // request_id end to end, the bucket is exactly that query's traffic even
  // with other queries in flight. Only registered ids pay the bookkeeping.
  virtual void begin_query_stats(std::uint64_t query_id) = 0;
  virtual NetworkStats take_query_stats(std::uint64_t query_id) = 0;
};

}  // namespace mendel::net
