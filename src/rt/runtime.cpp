#include "rt/runtime.hpp"

namespace gputn::rt {

mem::Addr NodeRuntime::alloc_flag() {
  mem::Addr f = mem_->alloc(sizeof(std::uint64_t), 8);
  mem_->store<std::uint64_t>(f, 0);
  return f;
}

mem::Addr NodeRuntime::take_flag() {
  if (spare_flags_.empty()) return alloc_flag();
  mem::Addr f = spare_flags_.back();
  spare_flags_.pop_back();
  mem_->store<std::uint64_t>(f, 0);
  return f;
}

sim::Task<> NodeRuntime::send(net::NodeId dst, std::uint64_t tag,
                              mem::Addr buf, std::uint64_t bytes,
                              bool host_staging) {
  co_await cpu_->compute(cpu_->config().send_stack_cost);
  if (host_staging) co_await cpu_->staging_copy(bytes);
  mem::Addr flag = take_flag();
  nic::SendDesc s;
  s.target = dst;
  s.local_addr = buf;
  s.bytes = bytes;
  s.tag = tag;
  s.local_flag = flag;
  nic_->ring_doorbell(s);
  co_await cpu_->wait_value_ge(flag, 1);
  spare_flags_.push_back(flag);
}

sim::Task<> NodeRuntime::recv(net::NodeId src, std::uint64_t tag,
                              mem::Addr buf, std::uint64_t max_bytes,
                              bool host_staging) {
  co_await cpu_->compute(cpu_->config().recv_stack_cost);
  mem::Addr flag = take_flag();
  nic::RecvDesc r;
  r.src = src;
  r.tag = tag;
  r.local_addr = buf;
  r.max_bytes = max_bytes;
  r.flag = flag;
  nic_->post_recv(r);
  co_await cpu_->wait_value_ge(flag, 1);
  spare_flags_.push_back(flag);
  if (host_staging) co_await cpu_->staging_copy(max_bytes);
}

sim::Task<> NodeRuntime::put_nb(nic::PutDesc put) {
  co_await cpu_->compute(cpu_->config().post_cost);
  nic_->ring_doorbell(put);
}

sim::Task<> NodeRuntime::put(nic::PutDesc put) {
  const bool own_flag = put.local_flag == 0;
  if (own_flag) put.local_flag = take_flag();
  mem::Addr flag = put.local_flag;
  std::uint64_t value = put.flag_value;
  co_await put_nb(put);
  co_await cpu_->wait_value_ge(flag, value);
  if (own_flag) spare_flags_.push_back(flag);
}

sim::Task<> NodeRuntime::trig_put(core::Tag tag, std::uint64_t threshold,
                                  nic::PutDesc put) {
  // The host builds the command packet (partial network stack)...
  co_await cpu_->compute(cpu_->config().post_cost);
  // ...and registers it with the NIC; the registration write takes a
  // doorbell-latency to become visible to the trigger unit.
  sim_->schedule_in(nic_->config().doorbell_latency,
                    [this, tag, threshold, put] {
                      trig_->register_put(tag, threshold, put);
                    });
}

sim::Task<std::shared_ptr<gpu::KernelRecord>> NodeRuntime::launch(
    gpu::KernelDesc desc) {
  co_await cpu_->compute(cpu_->config().kernel_enqueue_cost);
  co_return gpu_->enqueue_kernel(std::move(desc));
}

sim::Task<> NodeRuntime::launch_sync(gpu::KernelDesc desc) {
  auto record = co_await launch(std::move(desc));
  co_await record->done.wait();
  // The host detects completion by polling the stream (cudaStreamSynchronize
  // style) — one poll interval of detection latency.
  co_await cpu_->compute(cpu_->config().poll_interval);
}

sim::Task<> NodeRuntime::gds_stream_put(nic::PutDesc put) {
  co_await cpu_->compute(cpu_->config().post_cost);
  gpu_->enqueue_gds_put(*nic_, put);
}

void NodeRuntime::gds_stream_wait(mem::Addr addr, std::uint64_t value) {
  gpu_->enqueue_gds_wait(addr, value);
}

}  // namespace gputn::rt
