#include "src/sim/network.h"

#include <utility>

#include "src/common/check.h"

namespace ftx_sim {

Network::Network(Simulator* sim, int num_processes, NetworkOptions options)
    : sim_(sim), options_(options) {
  FTX_CHECK(sim != nullptr);
  FTX_CHECK_GT(num_processes, 0);
  inbox_.resize(static_cast<size_t>(num_processes));
  recovery_buffer_.resize(static_cast<size_t>(num_processes));
  arrival_callback_.resize(static_cast<size_t>(num_processes));
}

ftx::Duration Network::TransitTime(size_t bytes) const {
  return options_.base_latency +
         ftx::Nanoseconds(options_.per_kilobyte.nanos() * static_cast<int64_t>(bytes) / 1024);
}

int64_t Network::Send(int src, int dst, ftx::Bytes payload) {
  FTX_CHECK(dst >= 0 && dst < num_processes());
  Message msg;
  msg.id = next_message_id_++;
  msg.src = src;
  msg.dst = dst;
  msg.sent_at = sim_->Now();
  total_bytes_ += static_cast<int64_t>(payload.size());
  if (message_observer_) {
    message_observer_(msg.id, src, dst, static_cast<int64_t>(payload.size()));
  }
  msg.payload = std::move(payload);

  ftx::Duration latency = TransitTime(msg.payload.size());
  if (options_.max_jitter.nanos() > 0) {
    latency += ftx::Nanoseconds(static_cast<int64_t>(
        sim_->rng().NextBounded(static_cast<uint64_t>(options_.max_jitter.nanos()))));
  }
  // FIFO per channel: jitter may delay but never reorder (src, dst) pairs.
  ftx::TimePoint deliver_at = sim_->Now() + latency;
  ftx::TimePoint& last = last_delivery_[{src, dst}];
  if (deliver_at <= last) {
    deliver_at = last + ftx::Nanoseconds(1);
  }
  last = deliver_at;
  latency = deliver_at - sim_->Now();
  int64_t id = msg.id;
  // Delivery runs on the receiver's shard; msg.id is a global send id, so
  // the merge front keeps same-timestamp cross-shard deliveries in
  // monolithic order regardless of which shard a sender lives on.
  sim_->ScheduleAfterFor(dst, latency, [this, msg = std::move(msg)]() mutable {
    msg.delivered_at = sim_->Now();
    int dst_idx = msg.dst;
    inbox_[static_cast<size_t>(dst_idx)].push_back(std::move(msg));
    if (arrival_callback_[static_cast<size_t>(dst_idx)]) {
      arrival_callback_[static_cast<size_t>(dst_idx)]();
    }
  });
  return id;
}

bool Network::HasPending(int dst) const {
  FTX_CHECK(dst >= 0 && dst < num_processes());
  return !inbox_[static_cast<size_t>(dst)].empty();
}

std::optional<Message> Network::Deliver(int dst) {
  FTX_CHECK(dst >= 0 && dst < num_processes());
  auto& box = inbox_[static_cast<size_t>(dst)];
  if (box.empty()) {
    return std::nullopt;
  }
  Message msg = std::move(box.front());
  box.pop_front();
  recovery_buffer_[static_cast<size_t>(dst)].push_back(msg);
  ++messages_delivered_;
  return msg;
}

const Message* Network::PeekNext(int dst) const {
  FTX_CHECK(dst >= 0 && dst < num_processes());
  const auto& box = inbox_[static_cast<size_t>(dst)];
  return box.empty() ? nullptr : &box.front();
}

void Network::ReleaseAllDelivered(int dst) {
  FTX_CHECK(dst >= 0 && dst < num_processes());
  recovery_buffer_[static_cast<size_t>(dst)].clear();
}

void Network::DropNewestRetained(int dst, int64_t message_id) {
  FTX_CHECK(dst >= 0 && dst < num_processes());
  auto& buffer = recovery_buffer_[static_cast<size_t>(dst)];
  FTX_CHECK(!buffer.empty());
  FTX_CHECK_EQ(buffer.back().id, message_id);
  buffer.pop_back();
}

void Network::RequeueRetained(int dst) {
  FTX_CHECK(dst >= 0 && dst < num_processes());
  auto& buffer = recovery_buffer_[static_cast<size_t>(dst)];
  auto& box = inbox_[static_cast<size_t>(dst)];
  // Retained messages were delivered before anything still in the inbox, so
  // they go to the front, preserving original order.
  messages_requeued_ += static_cast<int64_t>(buffer.size());
  for (auto it = buffer.rbegin(); it != buffer.rend(); ++it) {
    box.push_front(*it);
  }
  buffer.clear();
}

void Network::BindMetrics(ftx_obs::Registry* registry) {
  registry->RegisterCounterProbe("sim.messages_sent", [this]() { return next_message_id_; });
  registry->RegisterCounterProbe("sim.messages_delivered", [this]() { return messages_delivered_; });
  registry->RegisterCounterProbe("sim.messages_requeued", [this]() { return messages_requeued_; });
  registry->RegisterCounterProbe("sim.bytes_sent", [this]() { return total_bytes_; });
}

void Network::SetArrivalCallback(int dst, std::function<void()> callback) {
  FTX_CHECK(dst >= 0 && dst < num_processes());
  arrival_callback_[static_cast<size_t>(dst)] = std::move(callback);
}

}  // namespace ftx_sim
