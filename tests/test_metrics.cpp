// obs/metrics.h: the job-attribution layer (JobObs blocks, thread binding,
// crew inheritance, span routing) and the Prometheus text-exposition writer
// (HELP/TYPE preambles, label escaping, log2 histograms as cumulative `le`
// buckets). The serve-level integration — per-job deltas summing to the
// process-global delta under concurrency — is covered in test_serve.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "json_validator.h"
#include "obs/hist.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "parallel/workforce.h"

namespace raxh {
namespace {

using obs::Counter;
using obs::Hist;
using obs::JobObs;
using obs::JobScope;
using testutil::JsonValidator;

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::bind_job(nullptr);
    obs::set_enabled(false);
    obs::reset();
  }
};

// --- label escaping -------------------------------------------------------

TEST(PromEscape, EscapesBackslashQuoteNewline) {
  EXPECT_EQ(obs::prom_escape_label("plain"), "plain");
  EXPECT_EQ(obs::prom_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::prom_escape_label("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::prom_escape_label("two\nlines"), "two\\nlines");
  EXPECT_EQ(obs::prom_escape_label("\\\"\n"), "\\\\\\\"\\n");
}

// --- PromWriter golden format --------------------------------------------

TEST(PromWriter, GaugeAndCounterGoldenFormat) {
  obs::PromWriter w;
  w.gauge("raxhd_jobs_running", "Jobs currently executing.", 3);
  w.counter("raxhd_jobs_submitted_total", "Jobs ever accepted.", 42);
  const std::string text = w.take();
  EXPECT_EQ(text,
            "# HELP raxhd_jobs_running Jobs currently executing.\n"
            "# TYPE raxhd_jobs_running gauge\n"
            "raxhd_jobs_running 3\n"
            "# HELP raxhd_jobs_submitted_total Jobs ever accepted.\n"
            "# TYPE raxhd_jobs_submitted_total counter\n"
            "raxhd_jobs_submitted_total 42\n");
}

TEST(PromWriter, LabeledFamilyEscapesValues) {
  obs::PromWriter w;
  w.counter_labeled("raxhd_tenant_jobs_total", "Jobs by tenant.", "tenant",
                    {{"alice", 2}, {"bad\"guy\n", 1}});
  const std::string text = w.take();
  EXPECT_NE(text.find("raxhd_tenant_jobs_total{tenant=\"alice\"} 2\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("raxhd_tenant_jobs_total{tenant=\"bad\\\"guy\\n\"} 1\n"),
      std::string::npos);
  // One preamble for the whole family, before any sample.
  EXPECT_EQ(text.find("# HELP raxhd_tenant_jobs_total"), 0u);
  EXPECT_EQ(text.find("# TYPE"), text.find("# TYPE raxhd_tenant_jobs_total"));
}

TEST(PromWriter, HistogramCumulativeBuckets) {
  obs::HistSnapshot snap;
  // Two samples in bucket 1 ([1,1] ns) and one in bucket 11 ([1024,2047] ns).
  snap.buckets[1] = 2;
  snap.buckets[11] = 1;
  snap.count = 3;
  snap.sum_ns = 1026;
  snap.max_ns = 1024;
  obs::PromWriter w;
  w.histogram_ns("raxhd_exec_seconds", "Execution latency.", snap);
  const std::string text = w.take();
  EXPECT_NE(text.find("# TYPE raxhd_exec_seconds histogram"),
            std::string::npos);
  // Cumulative counts: the bucket at le=2^11-1 ns carries all 3 samples.
  EXPECT_NE(text.find("raxhd_exec_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("raxhd_exec_seconds_sum 1.026e-06\n"),
            std::string::npos);
  EXPECT_NE(text.find("raxhd_exec_seconds_count 3\n"), std::string::npos);
  // The first occupied bucket holds 2; every later emitted bucket >= 2.
  const auto first = text.find("_bucket{le=\"1e-09\"} 2");
  EXPECT_NE(first, std::string::npos);
}

// --- JobObs attribution ---------------------------------------------------

TEST_F(MetricsTest, BoundThreadMirrorsCountsIntoJob) {
  auto job = std::make_shared<JobObs>();
  const obs::CounterSnapshot global_before = obs::counters_snapshot();
  {
    JobScope scope(job);
    obs::count(Counter::kNewviewCalls, 5);
    obs::count(Counter::kEvaluateCalls);
  }
  obs::count(Counter::kNewviewCalls);  // unbound: global only
  const obs::CounterSnapshot global_after = obs::counters_snapshot();
  const obs::CounterSnapshot mine = job->counters();
  EXPECT_EQ(mine.values[static_cast<int>(Counter::kNewviewCalls)], 5u);
  EXPECT_EQ(mine.values[static_cast<int>(Counter::kEvaluateCalls)], 1u);
  EXPECT_EQ(global_after.values[static_cast<int>(Counter::kNewviewCalls)] -
                global_before.values[static_cast<int>(Counter::kNewviewCalls)],
            6u);
}

TEST_F(MetricsTest, DisabledObsNeverReachesTheJobBlock) {
  obs::set_enabled(false);
  auto job = std::make_shared<JobObs>();
  JobScope scope(job);
  obs::count(Counter::kNewviewCalls, 100);
  obs::hist_record(Hist::kCrewJobNs, 1234);
  EXPECT_EQ(job->counters().values[static_cast<int>(Counter::kNewviewCalls)],
            0u);
  EXPECT_EQ(job->hist(Hist::kCrewJobNs).count, 0u);
}

TEST_F(MetricsTest, HistSamplesMirrorIntoJob) {
  auto job = std::make_shared<JobObs>();
  {
    JobScope scope(job);
    obs::hist_record(Hist::kCrewJobNs, 1000);
    obs::hist_record(Hist::kCrewJobNs, 3000);
  }
  const obs::HistSnapshot snap = job->hist(Hist::kCrewJobNs);
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.sum_ns, 4000u);
  EXPECT_EQ(snap.max_ns, 3000u);
}

TEST_F(MetricsTest, JobScopeRestoresPreviousBinding) {
  auto outer = std::make_shared<JobObs>();
  auto inner = std::make_shared<JobObs>();
  JobScope a(outer, 1);
  EXPECT_EQ(obs::current_job(), outer);
  EXPECT_EQ(obs::current_job_lane(), 1);
  {
    JobScope b(inner, 7);
    EXPECT_EQ(obs::current_job(), inner);
    EXPECT_EQ(obs::current_job_lane(), 7);
    obs::count(Counter::kNewviewCalls);
  }
  EXPECT_EQ(obs::current_job(), outer);
  EXPECT_EQ(obs::current_job_lane(), 1);
  obs::count(Counter::kNewviewCalls);
  EXPECT_EQ(inner->counters().values[static_cast<int>(Counter::kNewviewCalls)],
            1u);
  EXPECT_EQ(outer->counters().values[static_cast<int>(Counter::kNewviewCalls)],
            1u);
}

TEST_F(MetricsTest, WorkforceCrewInheritsTheCreatorsBinding) {
  auto job = std::make_shared<JobObs>();
  constexpr int kThreads = 4;
  {
    JobScope scope(job, 0);
    Workforce crew(kThreads);
    crew.run([](int, int) { obs::count(Counter::kNewviewCalls); });
  }
  // All four threads (master + 3 inherited workers) charged the job.
  EXPECT_EQ(job->counters().values[static_cast<int>(Counter::kNewviewCalls)],
            static_cast<std::uint64_t>(kThreads));
}

// --- span routing ---------------------------------------------------------

TEST_F(MetricsTest, BoundSpansRouteToTheJobRing) {
  auto job = std::make_shared<JobObs>();
  {
    JobScope scope(job, 3);
    obs::record_span("likelihood.newview", 1000, 500);
  }
  const std::string frag = job->export_trace_fragment(0, "job j0", {});
  EXPECT_NE(frag.find("likelihood.newview"), std::string::npos);
  EXPECT_NE(frag.find("\"tid\":3"), std::string::npos);
  const std::string merged = obs::merge_trace_fragments({frag});
  EXPECT_TRUE(JsonValidator(merged).valid()) << merged;
}

TEST_F(MetricsTest, PhaseSpansLandOnThePhaseLane) {
  auto job = std::make_shared<JobObs>();
  {
    JobScope scope(job, 2);
    obs::record_phase_span("bootstrap", 0, 42);
  }
  const std::string frag = job->export_trace_fragment(5, "job j5", {});
  EXPECT_NE(
      frag.find("\"tid\":" + std::to_string(obs::kJobPhaseLane)),
      std::string::npos);
  EXPECT_NE(frag.find("phases"), std::string::npos);  // lane name metadata
}

TEST_F(MetricsTest, ExtraSpansAndLaneNamesExport) {
  auto job = std::make_shared<JobObs>();
  job->set_lane_name(obs::kJobLifecycleLane, "lifecycle");
  std::vector<obs::SpanEvent> extra;
  extra.push_back({"queued", 100, 50, obs::kJobLifecycleLane});
  const std::string frag =
      job->export_trace_fragment(1, "job j1 tenant=alice", extra);
  EXPECT_NE(frag.find("\"queued\""), std::string::npos);
  EXPECT_NE(frag.find("lifecycle"), std::string::npos);
  EXPECT_NE(frag.find("job j1 tenant=alice"), std::string::npos);
  EXPECT_TRUE(JsonValidator(obs::merge_trace_fragments({frag})).valid());
}

TEST_F(MetricsTest, SpanRingBoundsMemoryAndCountsDrops) {
  auto job = std::make_shared<JobObs>();
  JobScope scope(job, 0);
  const std::size_t total = obs::kJobSpanCapacity + 100;
  for (std::size_t i = 0; i < total; ++i)
    obs::record_span("s" + std::to_string(i), i, 1);
  EXPECT_EQ(job->counters()[Counter::kSpansDropped], 100u);
  // The oldest spans were overwritten; the newest survive.
  const std::string frag = job->export_trace_fragment(0, "job", {});
  EXPECT_EQ(frag.find("\"s0\""), std::string::npos);
  EXPECT_NE(frag.find("\"s" + std::to_string(total - 1) + "\""),
            std::string::npos);
}

TEST_F(MetricsTest, JobRingDropsRaiseTheProcessWideSpansDropped) {
  const std::uint64_t before =
      obs::counters_snapshot()[Counter::kSpansDropped];
  {
    auto job = std::make_shared<JobObs>();
    JobScope scope(job, 0);
    for (std::size_t i = 0; i < obs::kJobSpanCapacity + 37; ++i)
      obs::record_span("s", i, 1);
    EXPECT_EQ(obs::counters_snapshot()[Counter::kSpansDropped] - before, 37u);
  }
  // The job is gone; its drops stay in the process-wide count.
  EXPECT_EQ(obs::counters_snapshot()[Counter::kSpansDropped] - before, 37u);
}

TEST_F(MetricsTest, UnboundSpansStayOutOfJobRings) {
  auto job = std::make_shared<JobObs>();
  obs::record_span("global.only", 0, 10);
  const std::string frag = job->export_trace_fragment(0, "job", {});
  EXPECT_EQ(frag.find("global.only"), std::string::npos);
}

}  // namespace
}  // namespace raxh
