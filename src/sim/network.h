// Simulated network with per-receiver recovery buffers.
//
// Messages between processes traverse a switched-Ethernet-like fabric with a
// base latency plus per-byte cost and bounded jitter. Delivery is FIFO per
// (src, dst) pair.
//
// Recovery support (§2.1 of the paper): for receive events to be redoable,
// messages must be re-deliverable after a rollback. The network therefore
// retains every delivered message in a per-receiver recovery buffer until
// the receiver commits (ReleaseAllDelivered). On rollback, the receiver
// requeues its retained messages (RequeueRetained) so reexecution receives
// them again, in order.

#ifndef FTX_SRC_SIM_NETWORK_H_
#define FTX_SRC_SIM_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/sim_time.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"

namespace ftx_sim {

// A message in flight or delivered.
struct Message {
  int64_t id = -1;
  int src = -1;
  int dst = -1;
  ftx::Bytes payload;
  ftx::TimePoint sent_at;
  ftx::TimePoint delivered_at;
};

struct NetworkOptions {
  ftx::Duration base_latency = ftx::Microseconds(50);
  ftx::Duration per_kilobyte = ftx::Microseconds(10);
  ftx::Duration max_jitter = ftx::Microseconds(5);
};

class Network {
 public:
  Network(Simulator* sim, int num_processes, NetworkOptions options = {});

  int num_processes() const { return static_cast<int>(inbox_.size()); }

  // Queues a message for delivery; returns its id. Delivery is scheduled on
  // the simulator after the modeled latency.
  int64_t Send(int src, int dst, ftx::Bytes payload);

  // True if a message is waiting in dst's inbox right now.
  bool HasPending(int dst) const;

  // Pops the next message for dst (a receive event). The message is moved to
  // dst's recovery buffer. Returns nullopt if the inbox is empty.
  std::optional<Message> Deliver(int dst);

  // MSG_PEEK: the next message for dst without consuming it, or nullptr.
  const Message* PeekNext(int dst) const;

  // Called when dst commits: every message it has consumed so far is covered
  // by the commit, so all retained copies are discarded.
  void ReleaseAllDelivered(int dst);

  // Called when a just-delivered message was captured in the receiver's ND
  // log (a logged receive must not ALSO be redelivered from the recovery
  // buffer on rollback). `message_id` must be the newest retained message.
  void DropNewestRetained(int dst, int64_t message_id);

  // Called when dst rolls back: all retained (uncommitted) messages are
  // placed back at the *front* of its inbox in original delivery order, so
  // reexecution re-receives them.
  void RequeueRetained(int dst);

  // Invoked whenever a message lands in dst's inbox; used by blocked
  // receivers to wake up. One callback per process.
  void SetArrivalCallback(int dst, std::function<void()> callback);

  // Invoked at Send time with (id, src, dst, payload bytes). Observational
  // only (the causal audit's send ledger); never affects delivery.
  using MessageObserver = std::function<void(int64_t, int, int, int64_t)>;
  void SetMessageObserver(MessageObserver observer) { message_observer_ = std::move(observer); }

  // Time a message of `bytes` payload takes in transit (without jitter).
  ftx::Duration TransitTime(size_t bytes) const;

  int64_t total_messages() const { return next_message_id_; }
  int64_t total_bytes() const { return total_bytes_; }

  // Exposes fabric counters through a metrics registry ("sim.messages_sent",
  // "sim.messages_delivered", "sim.messages_requeued", "sim.bytes_sent").
  void BindMetrics(ftx_obs::Registry* registry);

 private:
  Simulator* sim_;
  NetworkOptions options_;
  int64_t next_message_id_ = 0;
  int64_t total_bytes_ = 0;
  int64_t messages_delivered_ = 0;
  int64_t messages_requeued_ = 0;
  // Enforces FIFO per (src, dst) even under jitter: a message never arrives
  // before an earlier message on the same channel.
  std::map<std::pair<int, int>, ftx::TimePoint> last_delivery_;
  std::vector<std::deque<Message>> inbox_;
  std::vector<std::deque<Message>> recovery_buffer_;
  std::vector<std::function<void()>> arrival_callback_;
  MessageObserver message_observer_;
};

}  // namespace ftx_sim

#endif  // FTX_SRC_SIM_NETWORK_H_
