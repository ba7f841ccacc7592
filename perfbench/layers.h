// Benchmark-side instrumentation of the application boundary, built only
// from the library's public interfaces (nothing inside src/ is timed by
// this file):
//
//  * TimedApp decorates an ftx_dc::App: every Step/Init/OnRecovered call is
//    an "apps.*" span, so a step's self time is the application's own work.
//  * TimedEnv proxies the ftx_dc::ProcessEnv (the Discount Checking
//    runtime) the decorator receives: every event call is a
//    "checkpoint.<class>" span, which includes the runtime's protocol
//    decision, trace append, commit and any 2PC round it triggers.
//
// Both only forward, so a decorated run reproduces the undecorated run's
// simulated results exactly (the benchmark checks this on every traced run).

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <memory>
#include <vector>

#include "perfbench/spans.h"
#include "src/checkpoint/app.h"

namespace perfbench {

// Span names of the ProcessEnv call classes.
inline constexpr const char* kPrintSpan = "checkpoint.print";
inline constexpr const char* kSendSpan = "checkpoint.send";
inline constexpr const char* kReceiveSpan = "checkpoint.receive";
inline constexpr const char* kInputSpan = "checkpoint.input";
inline constexpr const char* kNdOtherSpan = "checkpoint.nd_other";
inline constexpr const char* kComputeSpan = "checkpoint.compute";
inline constexpr const char* kStepSpan = "apps.step";

class TimedEnv final : public ftx_dc::ProcessEnv {
 public:
  TimedEnv(ftx_dc::ProcessEnv& inner, SpanRecorder& spans) : inner_(inner), spans_(spans) {}

  int pid() const override { return inner_.pid(); }
  int num_processes() const override { return inner_.num_processes(); }
  ftx::TimePoint Now() const override { return inner_.Now(); }
  ftx_vista::Segment& segment() override { return inner_.segment(); }
  ftx_vista::SegmentHeap& heap() override { return inner_.heap(); }

  ftx::TimePoint GetTimeOfDay() override;
  void DeliverSignal() override;
  std::optional<ftx::Bytes> ReadUserInput() override;
  void Print(ftx::Bytes payload) override;
  void Send(int dst, ftx::Bytes payload) override;
  std::optional<ftx_sim::Message> TryReceive() override;
  const ftx_sim::Message* PeekMessage() override;
  void Compute(ftx::Duration work) override;
  ftx::Result<int> Open(const std::string& path, bool writable) override;
  ftx::Status Close(int fd) override;
  ftx::Result<int64_t> WriteFile(int fd, int64_t bytes) override;
  ftx::Status Bind(uint16_t port) override;
  void Crash(const std::string& reason) override;
  void MarkFaultActivation() override;

 private:
  ftx_dc::ProcessEnv& inner_;
  SpanRecorder& spans_;
};

class TimedApp final : public ftx_dc::App {
 public:
  TimedApp(std::unique_ptr<ftx_dc::App> inner, SpanRecorder& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  ftx_dc::App& inner() { return *inner_; }

  std::string_view name() const override { return inner_->name(); }
  size_t SegmentBytes() const override { return inner_->SegmentBytes(); }
  int64_t HeapOffset() const override { return inner_->HeapOffset(); }
  int64_t HeapBytes() const override { return inner_->HeapBytes(); }
  ftx_dc::FaultSurface fault_surface() const override { return inner_->fault_surface(); }
  void Init(ftx_dc::ProcessEnv& env) override;
  ftx_dc::StepOutcome Step(ftx_dc::ProcessEnv& env) override;
  void OnRecovered(ftx_dc::ProcessEnv& env) override;
  ftx::Status CheckIntegrity(ftx_dc::ProcessEnv& env) override;

 private:
  std::unique_ptr<ftx_dc::App> inner_;
  SpanRecorder& spans_;
};

// Wraps every app in a TimedApp recording into `spans`; returns the apps
// unchanged when `spans` is null.
std::vector<std::unique_ptr<ftx_dc::App>> Decorate(std::vector<std::unique_ptr<ftx_dc::App>> apps,
                                                   SpanRecorder* spans);

// The undecorated app behind `app` (itself when it is not a TimedApp).
ftx_dc::App& Undecorated(ftx_dc::App& app);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
