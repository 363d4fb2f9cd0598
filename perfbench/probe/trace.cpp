#include "trace.h"

#include <sstream>

namespace perfbench {

namespace {
thread_local std::vector<int> t_open;  // ids of this thread's open spans
}  // namespace

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

int SpanLog::begin(const char* name) {
  const int parent = t_open.empty() ? -1 : t_open.back();
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(SpanRecord{name, now_ns(), 0, id, parent});
  t_open.push_back(id);
  return id;
}

void SpanLog::end(int id) {
  const std::uint64_t stop = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = stop;
}

std::vector<SpanRecord> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

SpanLog::Totals SpanLog::totals(const std::string& name) const {
  const std::vector<SpanRecord> spans = snapshot();
  // Children of one span run on its thread, nested and disjoint, so the time
  // they cover is the sum of their durations.
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  for (const SpanRecord& s : spans)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  Totals t;
  for (const SpanRecord& s : spans) {
    if (name != s.name) continue;
    const std::uint64_t dur = s.end_ns - s.start_ns;
    t.total_s += dur * 1e-9;
    t.self_s += (dur - child_ns[static_cast<std::size_t>(s.id)]) * 1e-9;
    ++t.count;
  }
  return t;
}

std::string SpanLog::to_json() const {
  const std::vector<SpanRecord> spans = snapshot();
  std::ostringstream out;
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i ? "," : "") << "{\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent << "}";
  }
  out << "]}";
  return out.str();
}

void TimedComm::do_send(int dest, int tag, const raxh::mpi::Bytes& payload) {
  ScopedSpan span("minimpi.send");
  inner_->raw_send(dest, tag, payload);
}

raxh::mpi::Bytes TimedComm::do_recv(int src, int tag) {
  ScopedSpan span("minimpi.recv");
  return inner_->raw_recv(src, tag);
}

double TimedEvaluator::evaluate(const raxh::Tree& tree, int rec) {
  ScopedSpan span("likelihood.evaluate");
  return inner_->evaluate(tree, rec);
}

double TimedEvaluator::optimize_branch(raxh::Tree& tree, int rec) {
  ScopedSpan span("likelihood.optimize_branch");
  return inner_->optimize_branch(tree, rec);
}

double TimedEvaluator::smooth_branches(raxh::Tree& tree, int passes) {
  ScopedSpan span("likelihood.smooth");
  return inner_->smooth_branches(tree, passes);
}

double TimedEvaluator::optimize_model(raxh::Tree& tree) {
  ScopedSpan span("likelihood.optimize_model");
  return inner_->optimize_model(tree);
}

}  // namespace perfbench
