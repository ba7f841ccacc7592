#include "perfbench/layers.h"

#include <utility>

namespace perfbench {

namespace {

// Times one forwarded call and, for prints, keeps its latency sample.
class CallSpan {
 public:
  CallSpan(SpanRecorder& spans, const char* name)
      : spans_(spans), name_(name), start_ns_(NowNs()) {
    spans_.BeginAt(name, start_ns_);
  }
  ~CallSpan() {
    const int64_t end_ns = NowNs();
    spans_.EndAt(end_ns);
    if (name_ == kPrintSpan) {
      spans_.AddSample(kPrintSpan, static_cast<double>(end_ns - start_ns_) / 1e3);
    }
  }
  CallSpan(const CallSpan&) = delete;
  CallSpan& operator=(const CallSpan&) = delete;

 private:
  SpanRecorder& spans_;
  const char* name_;
  int64_t start_ns_;
};

}  // namespace

ftx::TimePoint TimedEnv::GetTimeOfDay() {
  CallSpan span(spans_, kNdOtherSpan);
  return inner_.GetTimeOfDay();
}

void TimedEnv::DeliverSignal() {
  CallSpan span(spans_, kNdOtherSpan);
  inner_.DeliverSignal();
}

std::optional<ftx::Bytes> TimedEnv::ReadUserInput() {
  CallSpan span(spans_, kInputSpan);
  return inner_.ReadUserInput();
}

void TimedEnv::Print(ftx::Bytes payload) {
  CallSpan span(spans_, kPrintSpan);
  inner_.Print(std::move(payload));
}

void TimedEnv::Send(int dst, ftx::Bytes payload) {
  CallSpan span(spans_, kSendSpan);
  inner_.Send(dst, std::move(payload));
}

std::optional<ftx_sim::Message> TimedEnv::TryReceive() {
  CallSpan span(spans_, kReceiveSpan);
  return inner_.TryReceive();
}

const ftx_sim::Message* TimedEnv::PeekMessage() {
  CallSpan span(spans_, kReceiveSpan);
  return inner_.PeekMessage();
}

void TimedEnv::Compute(ftx::Duration work) {
  CallSpan span(spans_, kComputeSpan);
  inner_.Compute(work);
}

ftx::Result<int> TimedEnv::Open(const std::string& path, bool writable) {
  CallSpan span(spans_, kNdOtherSpan);
  return inner_.Open(path, writable);
}

ftx::Status TimedEnv::Close(int fd) {
  CallSpan span(spans_, kNdOtherSpan);
  return inner_.Close(fd);
}

ftx::Result<int64_t> TimedEnv::WriteFile(int fd, int64_t bytes) {
  CallSpan span(spans_, kNdOtherSpan);
  return inner_.WriteFile(fd, bytes);
}

ftx::Status TimedEnv::Bind(uint16_t port) {
  CallSpan span(spans_, kNdOtherSpan);
  return inner_.Bind(port);
}

void TimedEnv::Crash(const std::string& reason) {
  CallSpan span(spans_, kNdOtherSpan);
  inner_.Crash(reason);
}

void TimedEnv::MarkFaultActivation() { inner_.MarkFaultActivation(); }

void TimedApp::Init(ftx_dc::ProcessEnv& env) {
  ScopedSpan span(&spans_, "apps.init");
  TimedEnv timed(env, spans_);
  inner_->Init(timed);
}

ftx_dc::StepOutcome TimedApp::Step(ftx_dc::ProcessEnv& env) {
  ScopedSpan span(&spans_, kStepSpan);
  TimedEnv timed(env, spans_);
  return inner_->Step(timed);
}

void TimedApp::OnRecovered(ftx_dc::ProcessEnv& env) {
  ScopedSpan span(&spans_, "apps.on_recovered");
  TimedEnv timed(env, spans_);
  inner_->OnRecovered(timed);
}

ftx::Status TimedApp::CheckIntegrity(ftx_dc::ProcessEnv& env) {
  ScopedSpan span(&spans_, "apps.check_integrity");
  TimedEnv timed(env, spans_);
  return inner_->CheckIntegrity(timed);
}

std::vector<std::unique_ptr<ftx_dc::App>> Decorate(std::vector<std::unique_ptr<ftx_dc::App>> apps,
                                                   SpanRecorder* spans) {
  if (spans == nullptr) {
    return apps;
  }
  for (auto& app : apps) {
    app = std::make_unique<TimedApp>(std::move(app), *spans);
  }
  return apps;
}

ftx_dc::App& Undecorated(ftx_dc::App& app) {
  auto* timed = dynamic_cast<TimedApp*>(&app);
  return timed == nullptr ? app : timed->inner();
}

}  // namespace perfbench
