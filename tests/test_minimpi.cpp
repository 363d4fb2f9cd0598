// minimpi/: serialization, point-to-point ordering, collectives on the
// thread backend, and a forked-process backend integration check.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "minimpi/comm.h"
#include "minimpi/fault.h"

namespace raxh::mpi {
namespace {

TEST(PackUnpack, RoundTripsScalarsStringsVectors) {
  Packer p;
  p.put(42);
  p.put(3.14159);
  p.put_string("hello world");
  p.put_doubles({1.0, -2.5, 1e100});
  p.put(static_cast<long>(-7));

  const Bytes bytes = p.take();
  Unpacker u(bytes);
  EXPECT_EQ(u.get<int>(), 42);
  EXPECT_DOUBLE_EQ(u.get<double>(), 3.14159);
  EXPECT_EQ(u.get_string(), "hello world");
  EXPECT_EQ(u.get_doubles(), (std::vector<double>{1.0, -2.5, 1e100}));
  EXPECT_EQ(u.get<long>(), -7);
  EXPECT_TRUE(u.exhausted());
}

TEST(PackUnpack, EmptyContainers) {
  Packer p;
  p.put_string("");
  p.put_doubles({});
  const Bytes bytes = p.take();
  Unpacker u(bytes);
  EXPECT_EQ(u.get_string(), "");
  EXPECT_TRUE(u.get_doubles().empty());
  EXPECT_TRUE(u.exhausted());
}

// Bytes off a socket are untrusted: every getter refuses a payload shorter
// than it needs with std::runtime_error instead of aborting the process.
TEST(PackUnpack, TruncatedWireInputThrowsForEveryGetter) {
  const auto packed = [](const std::function<void(Packer&)>& put) {
    Packer p;
    put(p);
    return p.take();
  };
  const std::pair<Bytes, std::function<void(Unpacker&)>> cases[] = {
      {packed([](Packer& p) { p.put(std::uint64_t{7}); }),
       [](Unpacker& u) { (void)u.get<std::uint64_t>(); }},
      {packed([](Packer& p) { p.put_string("hello"); }),
       [](Unpacker& u) { (void)u.get_string(); }},
      {packed([](Packer& p) { p.put_doubles({1.0, 2.0}); }),
       [](Unpacker& u) { (void)u.get_doubles(); }},
      {packed([](Packer& p) { p.put_bytes(Bytes{1, 2, 3}); }),
       [](Unpacker& u) { (void)u.get_bytes(); }},
  };
  for (const auto& [full, get] : cases) {
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      const Bytes truncated(full.begin(),
                            full.begin() + static_cast<long>(cut));
      Unpacker u(truncated, Unpacker::Source::kWire);
      EXPECT_THROW(get(u), std::runtime_error)
          << cut << " of " << full.size() << " bytes";
    }
  }
}

// A length prefix claiming more than the payload holds is refused before the
// getter allocates for it — 2^33 bytes, and 2^61 doubles whose byte count
// overflows 64 bits.
TEST(PackUnpack, OverlongLengthPrefixThrowsBeforeAllocating) {
  for (const std::uint64_t claim :
       {std::uint64_t{4}, std::uint64_t{1} << 33, std::uint64_t{1} << 61,
        ~std::uint64_t{0}}) {
    Packer p;
    p.put(claim);
    p.put(std::uint8_t{'a'});
    p.put(std::uint8_t{'b'});
    p.put(std::uint8_t{'c'});
    const Bytes body = p.take();
    Unpacker s(body, Unpacker::Source::kWire);
    EXPECT_THROW((void)s.get_string(), std::runtime_error) << claim;
    Unpacker d(body, Unpacker::Source::kWire);
    EXPECT_THROW((void)d.get_doubles(), std::runtime_error) << claim;
    Unpacker b(body, Unpacker::Source::kWire);
    EXPECT_THROW((void)b.get_bytes(), std::runtime_error) << claim;
  }
}

// Between ranks the same overlong prefix is a protocol bug: the default
// (mesh) source aborts as a contract failure, still without allocating.
TEST(PackUnpack, OverlongMeshPayloadIsAContractFailure) {
  Packer p;
  p.put(std::uint64_t{1} << 33);
  const Bytes body = p.take();
  EXPECT_DEATH(
      {
        Unpacker u(body);
        (void)u.get_string();
      },
      "precondition");
}

TEST(ThreadRanks, SizeAndRankAreConsistent) {
  for (int n : {1, 2, 5, 9}) {
    std::atomic<int> rank_sum{0};
    run_thread_ranks(n, [&](Comm& comm) {
      EXPECT_EQ(comm.size(), n);
      rank_sum.fetch_add(comm.rank());
    });
    EXPECT_EQ(rank_sum.load(), n * (n - 1) / 2);
  }
}

TEST(ThreadRanks, PointToPointPreservesOrder) {
  run_thread_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 100; ++i) {
        Packer p;
        p.put(i);
        comm.send(1, 7, p.bytes());
      }
    } else {
      for (int i = 0; i < 100; ++i) {
        const Bytes b = comm.recv(0, 7);
        Unpacker u(b);
        EXPECT_EQ(u.get<int>(), i);
      }
    }
  });
}

TEST(ThreadRanks, BarrierSynchronizes) {
  // After the barrier, every rank must observe all pre-barrier increments.
  std::atomic<int> before{0};
  run_thread_ranks(6, [&](Comm& comm) {
    before.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(before.load(), 6);
  });
}

TEST(ThreadRanks, BcastDistributesRootData) {
  run_thread_ranks(5, [](Comm& comm) {
    std::string payload =
        comm.rank() == 2 ? "the winning tree" : "overwritten";
    comm.bcast_string(payload, 2);
    EXPECT_EQ(payload, "the winning tree");
  });
}

TEST(ThreadRanks, AllreduceMaxlocFindsWinner) {
  run_thread_ranks(7, [](Comm& comm) {
    // Rank r contributes -(r-4)^2: the max is at rank 4.
    const double mine = -std::pow(comm.rank() - 4.0, 2.0);
    const auto best = comm.allreduce_maxloc(mine);
    EXPECT_EQ(best.rank, 4);
    EXPECT_DOUBLE_EQ(best.value, 0.0);
  });
}

TEST(ThreadRanks, AllreduceMaxlocTiePicksLowestRank) {
  run_thread_ranks(4, [](Comm& comm) {
    const auto best = comm.allreduce_maxloc(1.0);
    EXPECT_EQ(best.rank, 0);
  });
}

TEST(ThreadRanks, AllreduceSums) {
  run_thread_ranks(6, [](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(static_cast<double>(comm.rank())),
                     15.0);
    EXPECT_EQ(comm.allreduce_sum_long(2), 12);
    EXPECT_DOUBLE_EQ(comm.allreduce_max(static_cast<double>(comm.rank())),
                     5.0);
  });
}

TEST(ThreadRanks, GatherCollectsInRankOrder) {
  run_thread_ranks(4, [](Comm& comm) {
    const auto rows =
        comm.gather_doubles({static_cast<double>(comm.rank()) * 10.0}, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(rows.size(), 4u);
      for (int r = 0; r < 4; ++r)
        EXPECT_DOUBLE_EQ(rows[static_cast<std::size_t>(r)].at(0), r * 10.0);
    } else {
      EXPECT_TRUE(rows.empty());
    }
    const auto strings =
        comm.gather_strings("rank" + std::to_string(comm.rank()), 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(strings.size(), 4u);
      EXPECT_EQ(strings[3], "rank3");
    }
  });
}

TEST(ThreadRanks, SingleRankCollectivesAreNoops) {
  run_thread_ranks(1, [](Comm& comm) {
    comm.barrier();
    std::string s = "solo";
    comm.bcast_string(s, 0);
    EXPECT_EQ(s, "solo");
    EXPECT_EQ(comm.allreduce_maxloc(5.0).rank, 0);
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(3.0), 3.0);
  });
}

// --- process backend ---

TEST(ProcessRanks, CollectivesAcrossForkedProcesses) {
  // Note: failures inside child ranks abort the whole run (minimpi treats
  // them as MPI errors), which gtest reports as a crashed test.
  run_process_ranks(4, [](Comm& comm) {
    // maxloc
    const double mine = comm.rank() == 2 ? 100.0 : -1.0 * comm.rank();
    const auto best = comm.allreduce_maxloc(mine);
    if (best.rank != 2) std::abort();

    // bcast of a large payload (bigger than one pipe buffer chunk)
    std::string payload;
    if (comm.rank() == 2) payload.assign(1 << 20, 'x');
    comm.bcast_string(payload, 2);
    if (payload.size() != (1u << 20) || payload[12345] != 'x') std::abort();

    // barrier + gather
    comm.barrier();
    const auto rows = comm.gather_doubles({static_cast<double>(comm.rank())}, 0);
    if (comm.rank() == 0) {
      if (rows.size() != 4) std::abort();
      for (int r = 0; r < 4; ++r)
        if (rows[static_cast<std::size_t>(r)].at(0) != r) std::abort();
    }
  });
  SUCCEED();
}

TEST(ProcessRanks, RanksAreIsolatedProcesses) {
  // A static variable mutated in every rank stays per-process: rank 0's copy
  // must see only its own write.
  static int mutated = 0;
  run_process_ranks(3, [](Comm& comm) {
    mutated = comm.rank() + 1;
    comm.barrier();
  });
  EXPECT_EQ(mutated, 1);  // rank 0 ran in this process
}

// Runs the same collective script on `nranks` ranks of either backend and
// returns every rank's (msgs/bytes sent/recv) per collective, gathered in
// rank order. Timing fields (barrier_wait_ns) are deliberately excluded.
std::vector<std::vector<double>> comm_stats_script(bool processes,
                                                   int nranks) {
  std::vector<std::vector<double>> out;
  const auto fn = [&out](Comm& comm) {
    const Comm::Stats before = comm.stats();
    comm.barrier();
    std::string payload = comm.rank() == 0 ? std::string(1000, 'p') : "";
    comm.bcast_string(payload, 0);
    if (payload.size() != 1000) std::abort();
    comm.gather_doubles({static_cast<double>(comm.rank()), 2.0}, 0);

    const Comm::Stats s = comm.stats();  // snapshot before the report gather
    std::vector<double> flat;
    for (const auto op : {&Comm::Stats::barrier, &Comm::Stats::bcast,
                          &Comm::Stats::gather, &Comm::Stats::p2p}) {
      const Comm::OpStats& a = s.*op;
      const Comm::OpStats& b = before.*op;
      flat.push_back(static_cast<double>(a.msgs_sent - b.msgs_sent));
      flat.push_back(static_cast<double>(a.bytes_sent - b.bytes_sent));
      flat.push_back(static_cast<double>(a.msgs_recv - b.msgs_recv));
      flat.push_back(static_cast<double>(a.bytes_recv - b.bytes_recv));
    }
    const auto rows = comm.gather_doubles(flat, 0);
    if (comm.rank() == 0) out = rows;
  };
  if (processes)
    run_process_ranks(nranks, fn);
  else
    run_thread_ranks(nranks, fn);
  return out;
}

TEST(CommStats, BackendsCountIdenticalTraffic) {
  // Counting lives in the Comm base class, so the thread and the forked
  // process backend must report byte-for-byte identical message statistics
  // for the same barrier / bcast / gather sequence.
  const auto threads = comm_stats_script(false, 3);
  const auto procs = comm_stats_script(true, 3);
  ASSERT_EQ(threads.size(), 3u);
  ASSERT_EQ(procs.size(), 3u);
  for (int r = 0; r < 3; ++r)
    EXPECT_EQ(threads[static_cast<std::size_t>(r)],
              procs[static_cast<std::size_t>(r)])
        << "stats diverge on rank " << r;

  // Sanity anchors on rank 0 (root of both collectives): the broadcast moved
  // at least the 1000-byte payload, and the gather received from both peers.
  const auto& root = threads[0];
  EXPECT_GE(root[5], 1000.0);   // bcast bytes_sent
  EXPECT_GE(root[10], 2.0);     // gather msgs_recv
  EXPECT_GT(root[0] + root[2], 0.0);  // barrier exchanged messages
  EXPECT_EQ(root[12], 0.0);     // no stray p2p traffic outside collectives
}

// --- rank-failure detection, no fault injection involved ---
// A peer that exits (cleanly or not) must surface as RankFailed on both
// backends — never as a hang.

TEST(RankFailure, ThreadRecvFromFinishedRankThrows) {
  run_thread_ranks(2, [](Comm& comm) {
    if (comm.rank() == 1) return;  // rank 1 exits without sending
    try {
      comm.recv(1, 7);
      FAIL() << "recv from a finished rank returned";
    } catch (const RankFailed& e) {
      EXPECT_EQ(e.rank, 1);
    }
  });
}

TEST(RankFailure, ThreadBufferedMessagesDrainBeforeFailure) {
  // TCP-like semantics: what was sent before death stays deliverable, the
  // failure surfaces only once the channel is drained. After one RankFailed
  // the peer is known dead, so sends to it fail too.
  run_thread_ranks(2, [](Comm& comm) {
    if (comm.rank() == 1) {
      Packer p;
      p.put(99);
      comm.send(0, 7, p.bytes());
      return;
    }
    const Bytes b = comm.recv(1, 7);
    Unpacker u(b);
    EXPECT_EQ(u.get<int>(), 99);
    EXPECT_THROW(comm.recv(1, 7), RankFailed);
    EXPECT_THROW(comm.send(1, 7, {}), RankFailed);
  });
}

TEST(RankFailure, ProcessRecvFromExitedRankThrows) {
  run_process_ranks(2, [](Comm& comm) {
    if (comm.rank() == 1) return;  // child exits; its mesh sockets close
    try {
      comm.recv(1, 7);
      FAIL() << "recv from an exited rank returned";
    } catch (const RankFailed& e) {
      EXPECT_EQ(e.rank, 1);
    }
  });
}

TEST(RankFailure, ProcessBufferedMessagesDrainBeforeFailure) {
  run_process_ranks(2, [](Comm& comm) {
    if (comm.rank() == 1) {
      Packer p;
      p.put(42);
      comm.send(0, 9, p.bytes());
      return;
    }
    const Bytes b = comm.recv(1, 9);
    Unpacker u(b);
    EXPECT_EQ(u.get<int>(), 42);
    EXPECT_THROW(comm.recv(1, 9), RankFailed);  // EOF after the buffered data
    EXPECT_THROW(comm.send(1, 9, {}), RankFailed);  // EPIPE, not SIGPIPE
  });
}

// --- fault plans: parsing, validation, seeded generation ---

TEST(FaultPlanSpec, ParsesEveryKind) {
  const FaultPlan plan = FaultPlan::parse("die@1,7;drop@3,2;torn@2,12;delay@0,3,15");
  ASSERT_EQ(plan.actions.size(), 4u);
  EXPECT_EQ(plan.actions[0].kind, FaultAction::Kind::kDie);
  EXPECT_EQ(plan.actions[0].rank, 1);
  EXPECT_EQ(plan.actions[0].op, 7);
  EXPECT_EQ(plan.actions[1].kind, FaultAction::Kind::kDrop);
  EXPECT_EQ(plan.actions[2].kind, FaultAction::Kind::kTorn);
  EXPECT_EQ(plan.actions[3].kind, FaultAction::Kind::kDelay);
  EXPECT_EQ(plan.actions[3].delay_ms, 15);
  EXPECT_FALSE(plan.actions[3].lethal());
  EXPECT_TRUE(plan.actions[0].lethal());
}

TEST(FaultPlanSpec, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse(";;").empty());
}

TEST(FaultPlanSpec, RoundTripsThroughToSpec) {
  const std::string spec = "die@1,7;torn@2,12;delay@0,3,15";
  const FaultPlan plan = FaultPlan::parse(spec);
  EXPECT_EQ(plan.to_spec(), spec);
  EXPECT_EQ(FaultPlan::parse(plan.to_spec()).to_spec(), spec);
}

TEST(FaultPlanSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("boom@1,2"), std::runtime_error);   // kind
  EXPECT_THROW(FaultPlan::parse("die1,2"), std::runtime_error);     // no '@'
  EXPECT_THROW(FaultPlan::parse("die@1"), std::runtime_error);      // fields
  EXPECT_THROW(FaultPlan::parse("die@1,2,3"), std::runtime_error);  // fields
  EXPECT_THROW(FaultPlan::parse("delay@1,2"), std::runtime_error);  // no ms
  EXPECT_THROW(FaultPlan::parse("die@x,2"), std::runtime_error);    // number
  EXPECT_THROW(FaultPlan::parse("die@1,0"), std::runtime_error);    // op >= 1
  EXPECT_THROW(FaultPlan::parse("die@0,2"), std::runtime_error);    // rank 0
  EXPECT_THROW(FaultPlan::parse("drop@0,2"), std::runtime_error);   // rank 0
  EXPECT_THROW(FaultPlan::parse("die@1,2;torn@1,2"), std::runtime_error);
  EXPECT_NO_THROW(FaultPlan::parse("delay@0,2,5"));  // rank 0 delay is fine
}

TEST(FaultPlanSpec, GenerateIsDeterministicAndValid) {
  for (std::uint64_t seed : {1ull, 42ull, 20260806ull}) {
    const FaultPlan a = FaultPlan::generate(seed, 4, 10);
    const FaultPlan b = FaultPlan::generate(seed, 4, 10);
    EXPECT_EQ(a.to_spec(), b.to_spec());
    // Generated plans satisfy the same contract hand-written specs must.
    EXPECT_NO_THROW(FaultPlan::parse(a.to_spec()));
    int lethal = 0;
    for (const FaultAction& act : a.actions) {
      EXPECT_GE(act.op, 1);
      EXPECT_LE(act.op, 10);
      if (act.lethal()) {
        ++lethal;
        EXPECT_GE(act.rank, 1);
      }
      EXPECT_LT(act.rank, 4);
    }
    EXPECT_GE(lethal, 1);
    EXPECT_LE(lethal, 2);
  }
  EXPECT_NE(FaultPlan::generate(1, 4, 10).to_spec(),
            FaultPlan::generate(2, 4, 10).to_spec());
}

// --- FaultyComm: deterministic injection against both backends ---

TEST(FaultInjection, DelaysDoNotChangeResults) {
  const FaultPlan plan = FaultPlan::parse("delay@0,1,1;delay@1,2,1");
  run_thread_ranks(3, [&plan](Comm& inner) {
    FaultyComm comm(inner, plan);
    comm.barrier();
    const auto best = comm.allreduce_maxloc(static_cast<double>(comm.rank()));
    EXPECT_EQ(best.rank, 2);
    std::string s = comm.rank() == 0 ? "payload" : "";
    comm.bcast_string(s, 0);
    EXPECT_EQ(s, "payload");
    EXPECT_GT(comm.ops(), 0u);
  });
}

TEST(FaultInjection, InjectedDelayIsBookedAsSyntheticNotAsLatency) {
  // delay@1,1,60: rank 1's first transport op (the barrier send) sleeps
  // 60 ms. The sleeper books the measured sleep as synthetic delay and
  // subtracts it from its own barrier wait — chaos runs must not pollute
  // the comm-latency accounting. Rank 0's wait is real (it genuinely sat in
  // recv while rank 1 slept) and stays booked.
  const FaultPlan plan = FaultPlan::parse("delay@1,1,60");
  std::uint64_t synth[2] = {0, 0};
  std::uint64_t wait[2] = {0, 0};
  run_thread_ranks(2, [&](Comm& inner) {
    FaultyComm comm(inner, plan);
    comm.barrier();
    synth[comm.rank()] = comm.stats().synthetic_delay_ns;
    wait[comm.rank()] = comm.stats().barrier_wait_ns;
  });
  EXPECT_GE(synth[1], 55'000'000u);  // ~60 ms measured sleep
  EXPECT_EQ(synth[0], 0u);
  EXPECT_LT(wait[1], 30'000'000u);   // sleep excluded from the sleeper's wait
  EXPECT_GE(wait[0], 40'000'000u);   // the peer's wait on the sleeper is real
}

TEST(FaultInjection, DieDeliversEarlierMessagesThenFails) {
  const FaultPlan plan = FaultPlan::parse("die@1,2");
  run_thread_ranks(2, [&plan](Comm& inner) {
    FaultyComm comm(inner, plan);
    Packer p;
    p.put(7);
    if (comm.rank() == 1) {
      comm.send(0, 3, p.bytes());  // op 1: delivered
      comm.send(0, 3, p.bytes());  // op 2: dies before the wire
      ADD_FAILURE() << "rank 1 survived its own death";
    } else {
      const Bytes b = comm.recv(1, 3);
      Unpacker u(b);
      EXPECT_EQ(u.get<int>(), 7);
      EXPECT_THROW(comm.recv(1, 3), RankFailed);
    }
  });
}

TEST(FaultInjection, DropKillsSenderBeforeTheWire) {
  const FaultPlan plan = FaultPlan::parse("drop@1,1");
  run_thread_ranks(2, [&plan](Comm& inner) {
    FaultyComm comm(inner, plan);
    if (comm.rank() == 1) {
      comm.send(0, 3, Bytes{1, 2, 3});
      ADD_FAILURE() << "dropped send returned";
    } else {
      EXPECT_THROW(comm.recv(1, 3), RankFailed);
    }
  });
}

TEST(FaultInjection, TornPayloadSurfacesAsRankFailedOnThreads) {
  const FaultPlan plan = FaultPlan::parse("torn@1,1");
  run_thread_ranks(2, [&plan](Comm& inner) {
    FaultyComm comm(inner, plan);
    if (comm.rank() == 1) {
      comm.send(0, 3, Bytes{1, 2, 3, 4, 5, 6});
      ADD_FAILURE() << "torn send returned";
    } else {
      EXPECT_THROW(comm.recv(1, 3), RankFailed);
    }
  });
}

TEST(FaultInjection, TornPayloadSurfacesAsRankFailedOnProcesses) {
  const FaultPlan plan = FaultPlan::parse("torn@1,1");
  run_process_ranks(2, [&plan](Comm& inner) {
    FaultyComm comm(inner, plan);
    if (comm.rank() == 1) {
      comm.send(0, 3, Bytes{1, 2, 3, 4, 5, 6});
      std::abort();  // unreachable: the torn send dies (child process)
    } else {
      // Header promises 6 bytes, the wire carries 3, then EOF.
      EXPECT_THROW(comm.recv(1, 3), RankFailed);
    }
  });
}

TEST(FaultInjection, FaultTickCountsAsAnOp) {
  const FaultPlan plan = FaultPlan::parse("die@1,3");
  run_thread_ranks(2, [&plan](Comm& inner) {
    FaultyComm comm(inner, plan);
    if (comm.rank() == 1) {
      comm.fault_tick();               // op 1 (a completed work unit)
      comm.send(0, 3, Bytes{1});       // op 2: delivered
      comm.fault_tick();               // op 3: dies
      ADD_FAILURE() << "tick past the death op";
    } else {
      EXPECT_EQ(comm.recv(1, 3), (Bytes{1}));
      EXPECT_THROW(comm.recv(1, 3), RankFailed);
    }
  });
}

// Replay invariant: the same protocol script advances the same per-rank op
// counters on both backends — the property that makes one fault plan mean
// the same thing under ThreadComm and ProcessComm.
std::vector<double> op_stream_script(bool processes, int nranks) {
  std::vector<double> out;
  const FaultPlan plan = FaultPlan::parse("delay@1,2,1");
  const auto fn = [&out, &plan](Comm& inner) {
    FaultyComm comm(inner, plan);
    comm.barrier();
    std::string s = comm.rank() == 0 ? "x" : "";
    comm.bcast_string(s, 0);
    comm.fault_tick();
    const auto mine = static_cast<double>(comm.ops());  // snapshot pre-gather
    const auto rows = comm.gather_doubles({mine}, 0);
    if (comm.rank() == 0)
      for (const auto& row : rows) out.push_back(row.at(0));
  };
  if (processes)
    run_process_ranks(nranks, fn);
  else
    run_thread_ranks(nranks, fn);
  return out;
}

TEST(FaultInjection, OpStreamsMatchAcrossBackends) {
  const auto threads = op_stream_script(false, 3);
  const auto procs = op_stream_script(true, 3);
  ASSERT_EQ(threads.size(), 3u);
  EXPECT_EQ(threads, procs);
  for (const double ops : threads) EXPECT_GT(ops, 0.0);
}

// --- protocol violations die loudly (they are bugs, not runtime states) ---

TEST(ProtocolViolationDeath, TagMismatchAbortsOnThreads) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      run_thread_ranks(2,
                       [](Comm& comm) {
                         if (comm.rank() == 1)
                           comm.send(0, 1, Bytes{9});
                         else
                           comm.recv(1, 2);  // wrong tag
                       }),
      "invariant");
}

TEST(ProtocolViolationDeath, TagMismatchAbortsOnProcesses) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The wrong-tag recv sits on rank 0: it blocks until the message header
  // arrives, then trips the invariant — deterministically, with no race
  // against the peer's lifetime.
  EXPECT_DEATH(
      run_process_ranks(2,
                        [](Comm& comm) {
                          if (comm.rank() == 1)
                            comm.send(0, 1, Bytes{9});
                          else
                            comm.recv(1, 2);  // wrong tag
                        }),
      "invariant");
}

TEST(ProtocolViolationDeath, PayloadSizeMismatchAbortsOnThreads) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      run_thread_ranks(2,
                       [](Comm& comm) {
                         if (comm.rank() == 1) {
                           comm.send(0, 1, Bytes{1, 2, 3, 4});  // 4 bytes
                         } else {
                           const Bytes b = comm.recv(1, 1);
                           Unpacker u(b);
                           u.get<double>();  // expects 8
                         }
                       }),
      "precondition");
}

TEST(ProtocolViolationDeath, PayloadSizeMismatchAbortsOnProcesses) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      run_process_ranks(2,
                        [](Comm& comm) {
                          if (comm.rank() == 1) {
                            comm.send(0, 1, Bytes{1, 2, 3, 4});
                          } else {
                            const Bytes b = comm.recv(1, 1);
                            Unpacker u(b);
                            u.get<double>();  // aborts rank 0 itself
                          }
                        }),
      "precondition");
}

}  // namespace
}  // namespace raxh::mpi
