// Fabric adapter: exposes a DpiInstance as a node in the simulated SDN
// network. The switch steers tagged packets to the instance; the instance
// scans and sends the (possibly annotated) data packet — and, in dedicated-
// result-packet mode, the result packet right behind it — back to the
// switch, which forwards both down the rest of the policy chain.
#pragma once

#include <memory>

#include "netsim/fabric.hpp"
#include "service/instance.hpp"

namespace dpisvc::service {

class InstanceNode : public netsim::Node {
 public:
  /// `batch_packets` == 0 (the default) processes each packet inside
  /// receive(), exactly as before. A non-zero value enables batched ingest:
  /// arriving packets accumulate and are handed to process_batch() — one
  /// shard-lock acquisition and pool job per shard instead of per packet —
  /// when the batch fills or the fabric goes idle (Node::on_idle is the
  /// flush point, so no packet is ever stranded). Outputs are emitted in
  /// arrival order, so downstream nodes see the exact same packet sequence
  /// as the per-packet mode.
  InstanceNode(netsim::Fabric& fabric, netsim::NodeId name,
               std::shared_ptr<DpiInstance> instance,
               std::size_t batch_packets = 0)
      : Node(fabric, std::move(name)),
        instance_(std::move(instance)),
        batch_packets_(batch_packets) {}

  void receive(net::Packet packet, const netsim::NodeId& from) override {
    if (batch_packets_ == 0) {
      ProcessOutput out = instance_->process(std::move(packet));
      emit(from, std::move(out.data));
      if (out.result) {
        emit(from, std::move(*out.result));
      }
      return;
    }
    pending_.push_back(std::move(packet));
    pending_from_.push_back(from);
    if (pending_.size() >= batch_packets_) flush_batch();
  }

  void on_idle() override { flush_batch(); }

  DpiInstance& instance() noexcept { return *instance_; }
  std::size_t pending_packets() const noexcept { return pending_.size(); }

 private:
  void flush_batch() {
    if (pending_.empty()) return;
    std::vector<netsim::NodeId> froms;
    froms.swap(pending_from_);
    std::vector<net::Packet> packets;
    packets.swap(pending_);
    std::vector<ProcessOutput> outs =
        instance_->process_batch(std::move(packets));
    for (std::size_t i = 0; i < outs.size(); ++i) {
      emit(froms[i], std::move(outs[i].data));
      if (outs[i].result) {
        emit(froms[i], std::move(*outs[i].result));
      }
    }
  }

  std::shared_ptr<DpiInstance> instance_;
  std::size_t batch_packets_ = 0;
  std::vector<net::Packet> pending_;
  std::vector<netsim::NodeId> pending_from_;
};

}  // namespace dpisvc::service
