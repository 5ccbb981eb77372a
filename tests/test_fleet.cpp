// tp::fleet tests: wire-format round-trips and rejection of foreign
// bytes, loopback transport semantics, gossip bus rounds, snapshot store
// persistence, and the replicated-serving behaviors end to end — a win
// measured on one replica is adopted by peers without probing, snapshots
// round-trip to identical decisions and incumbent means, fleet retrain
// fans models out, and counters reconcile under concurrent gossip +
// retrain + traffic (the TSan-covered test).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/serial.hpp"
#include "fleet/faulty_transport.hpp"
#include "fleet/fleet.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "request_state.hpp"
#include "runtime/compiler.hpp"
#include "runtime/evaluation.hpp"
#include "sim/machine.hpp"

namespace tp::fleet {
namespace {

// ---- wire ------------------------------------------------------------------

adapt::WinRecord sampleWin(const std::string& program, std::size_t label) {
  adapt::WinRecord rec;
  rec.key.machine = "mc2";
  rec.key.program = program;
  rec.key.signature = {65536.0, 64.0, 0.25};
  rec.modelVersion = 3;
  rec.baseLabel = 5;
  rec.incumbentLabel = label;
  rec.incumbentMean = 0.125;
  rec.arms = {{5, 2, 0.5}, {label, 3, 0.125}};
  return rec;
}

TEST(Wire, EnvelopeRoundTrips) {
  Envelope e;
  e.kind = MsgKind::ModelInstall;
  e.from = "replica-1";
  e.seq = 42;
  e.payload = std::string("binary\0payload", 14);
  const Envelope back = decodeEnvelope(encodeEnvelope(e));
  EXPECT_EQ(back.kind, e.kind);
  EXPECT_EQ(back.from, e.from);
  EXPECT_EQ(back.seq, e.seq);
  EXPECT_EQ(back.payload, e.payload);
}

TEST(Wire, RejectsForeignAndTruncatedBytes) {
  Envelope e;
  e.kind = MsgKind::WinsGossip;
  e.from = "r0";
  const std::string bytes = encodeEnvelope(e);

  EXPECT_THROW(decodeEnvelope("not a fleet message"), Error);
  EXPECT_THROW(decodeEnvelope(bytes.substr(0, bytes.size() - 1)), Error);
  EXPECT_THROW(decodeEnvelope(bytes + "x"), Error);  // trailing bytes

  std::string wrongMagic = bytes;
  wrongMagic[0] ^= 0x5a;
  EXPECT_THROW(decodeEnvelope(wrongMagic), Error);

  std::string wrongVersion = bytes;
  wrongVersion[4] = 99;  // format version lives after the 4-byte magic
  EXPECT_THROW(decodeEnvelope(wrongVersion), Error);
}

TEST(Wire, WinRecordsRoundTrip) {
  const std::vector<adapt::WinRecord> wins = {sampleWin("fft/run", 7),
                                              sampleWin("spmv/kernel", 2)};
  const auto back = decodeWins(encodeWins(wins));
  ASSERT_EQ(back.size(), wins.size());
  for (std::size_t i = 0; i < wins.size(); ++i) {
    EXPECT_EQ(back[i].key, wins[i].key);
    EXPECT_EQ(back[i].modelVersion, wins[i].modelVersion);
    EXPECT_EQ(back[i].baseLabel, wins[i].baseLabel);
    EXPECT_EQ(back[i].incumbentLabel, wins[i].incumbentLabel);
    EXPECT_DOUBLE_EQ(back[i].incumbentMean, wins[i].incumbentMean);
    ASSERT_EQ(back[i].arms.size(), wins[i].arms.size());
    for (std::size_t a = 0; a < wins[i].arms.size(); ++a) {
      EXPECT_EQ(back[i].arms[a].label, wins[i].arms[a].label);
      EXPECT_EQ(back[i].arms[a].count, wins[i].arms[a].count);
      EXPECT_DOUBLE_EQ(back[i].arms[a].meanSeconds,
                       wins[i].arms[a].meanSeconds);
    }
  }
}

TEST(Wire, HostileCountsThrowInsteadOfAllocating) {
  // A corrupt length prefix claiming 4 billion elements must surface as
  // tp::Error from the count check — not as a multi-gigabyte reserve().
  common::WireWriter lyingWins;
  lyingWins.u32(0xffffffffu);
  EXPECT_THROW(decodeWins(lyingWins.data()), Error);

  common::WireWriter lyingModels;
  lyingModels.u64(1);           // model version
  lyingModels.u32(0xffffffffu);  // model blob count
  EXPECT_THROW(decodeModelInstall(lyingModels.data()), Error);

  common::WireWriter lyingFeedback;
  lyingFeedback.u64(4);          // numPartitionings
  lyingFeedback.u32(0xffffffffu);  // schema string count
  EXPECT_THROW(decodeFeedback(lyingFeedback.data()), Error);
}

TEST(Wire, FeedbackDatabaseRoundTrips) {
  runtime::FeatureDatabase db(4, {"s0", "s1"}, {"r0"});
  runtime::LaunchRecord rec;
  rec.program = "p";
  rec.machine = "mc1";
  rec.sizeLabel = "n=1024";
  rec.staticFeatures = {1.0, -2.5};
  rec.runtimeFeatures = {3.25};
  rec.times = {0.1, 0.2, 0.05, 0.4};
  db.add(rec);

  const auto back = decodeFeedback(encodeFeedback(db));
  EXPECT_EQ(back.numPartitionings(), db.numPartitionings());
  EXPECT_EQ(back.staticNames(), db.staticNames());
  EXPECT_EQ(back.runtimeNames(), db.runtimeNames());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.records()[0].program, "p");
  EXPECT_EQ(back.records()[0].times, rec.times);
}

// ---- transport -------------------------------------------------------------

TEST(LoopbackTransport, DeliversSerializedMessages) {
  LoopbackTransport transport;
  std::vector<std::string> aLog, bLog;
  transport.attach("a", [&](const Envelope& e) {
    aLog.push_back(e.from + ":" + e.payload);
  });
  transport.attach("b", [&](const Envelope& e) {
    bLog.push_back(e.from + ":" + e.payload);
  });
  EXPECT_EQ(transport.nodes(), (std::vector<std::string>{"a", "b"}));

  Envelope e;
  e.kind = MsgKind::WinsGossip;
  e.from = "a";
  e.payload = "hello";
  transport.send("a", "b", e);
  transport.broadcast("a", e);  // reaches b only (never the sender)
  transport.send("a", "ghost", e);  // unknown destination: dropped

  EXPECT_TRUE(aLog.empty());
  EXPECT_EQ(bLog, (std::vector<std::string>{"a:hello", "a:hello"}));

  const auto counters = transport.counters();
  EXPECT_EQ(counters.sent, 2u);
  EXPECT_EQ(counters.broadcasts, 1u);
  EXPECT_EQ(counters.delivered, 2u);
  EXPECT_EQ(counters.dropped, 1u);
  EXPECT_GT(counters.bytesMoved, 0u);

  transport.detach("b");
  transport.send("a", "b", e);
  EXPECT_EQ(transport.counters().dropped, 2u);
  EXPECT_EQ(bLog.size(), 2u);
}

TEST(LoopbackTransport, CountsAndRethrowsDeliveryFailures) {
  LoopbackTransport transport;
  transport.attach("bomb",
                   [](const Envelope&) { throw Error("handler exploded"); });
  Envelope e;
  e.kind = MsgKind::WinsGossip;
  e.from = "src";
  // The transport counts the failure but never swallows it: the sender
  // decides whether a failed delivery is fatal.
  EXPECT_THROW(transport.send("src", "bomb", e), Error);
  const auto counters = transport.counters();
  EXPECT_EQ(counters.delivered, 1u);
  EXPECT_EQ(counters.deliveryFailures, 1u);
}

TEST(LoopbackTransport, DetachDuringBroadcastReconciles) {
  // TSan target: broadcasters race a node flapping attach/detach. The
  // handler is copied out of the registry lock before invocation, so a
  // detach mid-broadcast must never free a handler under a caller — and
  // every delivery the transport counted must have run a handler.
  LoopbackTransport transport;
  std::atomic<std::uint64_t> received{0};
  transport.attach("sink", [&](const Envelope&) {
    received.fetch_add(1, std::memory_order_relaxed);
  });

  std::atomic<bool> stop{false};
  std::thread flapper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      transport.attach("flappy", [&](const Envelope&) {
        received.fetch_add(1, std::memory_order_relaxed);
      });
      std::this_thread::yield();
      transport.detach("flappy");
    }
  });

  constexpr std::size_t kSenders = 4;
  constexpr std::size_t kRounds = 200;
  Envelope e;
  e.kind = MsgKind::WinsGossip;
  e.from = "src";
  e.payload = "x";
  std::vector<std::thread> senders;
  for (std::size_t s = 0; s < kSenders; ++s) {
    senders.emplace_back([&] {
      for (std::size_t r = 0; r < kRounds; ++r) transport.broadcast("src", e);
    });
  }
  for (auto& s : senders) s.join();
  stop.store(true, std::memory_order_relaxed);
  flapper.join();

  const auto counters = transport.counters();
  // No handler throws, so every counted delivery completed in a handler;
  // broadcasts that snapshot "flappy" just before its detach count the
  // miss as dropped, never as a lost delivery.
  EXPECT_EQ(counters.delivered, received.load());
  EXPECT_EQ(counters.deliveryFailures, 0u);
  EXPECT_GE(counters.delivered, kSenders * kRounds);  // "sink" got them all
  EXPECT_EQ(counters.broadcasts, kSenders * kRounds);
}

TEST(LoopbackTransport, HandlersMaySendReentrantly) {
  LoopbackTransport transport;
  std::string echoed;
  transport.attach("server", [&](const Envelope& e) {
    Envelope reply;
    reply.kind = MsgKind::FeedbackPush;
    reply.from = "server";
    reply.payload = "re:" + e.payload;
    transport.send("server", e.from, reply);
  });
  transport.attach("client", [&](const Envelope& e) { echoed = e.payload; });

  Envelope e;
  e.kind = MsgKind::FeedbackPull;
  e.from = "client";
  e.payload = "ping";
  transport.send("client", "server", e);
  EXPECT_EQ(echoed, "re:ping");
}

// ---- gossip bus ------------------------------------------------------------

TEST(GossipBus, RunsParticipantsPerRound) {
  GossipBus bus;
  int a = 0, b = 0;
  bus.join("a", [&] { ++a; });
  bus.join("b", [&] { ++b; });
  EXPECT_EQ(bus.runRound(), 2u);
  bus.leave("a");
  EXPECT_EQ(bus.runRound(), 1u);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(bus.rounds(), 2u);
}

TEST(GossipBus, ThrowingParticipantIsCountedAndIsolated) {
  // Regression: a participant's exception used to propagate out of
  // runRound(), skipping every later participant and reaching whichever
  // thread drove the round. The failure boundary must count the error
  // and still run everyone else.
  GossipBus bus;
  int healthy = 0;
  bus.join("bad", [] { throw Error("participant exploded"); });
  bus.join("good", [&] { ++healthy; });
  EXPECT_EQ(bus.runRound(), 2u);
  EXPECT_EQ(bus.roundErrors(), 1u);
  EXPECT_EQ(healthy, 1);
  // The bus stays usable; errors accumulate, never swallow silently.
  EXPECT_EQ(bus.runRound(), 2u);
  EXPECT_EQ(bus.roundErrors(), 2u);
  EXPECT_EQ(healthy, 2);
}

// ---- faulty transport ------------------------------------------------------

Envelope gossipEnvelope(const std::string& from, std::uint64_t seq,
                        const std::string& payload = "payload") {
  Envelope e;
  e.kind = MsgKind::WinsGossip;
  e.from = from;
  e.seq = seq;
  e.payload = payload;
  return e;
}

TEST(FaultyTransport, CertainFaultsAreExactlyCounted) {
  LoopbackTransport inner;
  FaultyTransport net(inner, /*seed=*/7);
  std::vector<std::string> log;
  net.attach("b", [&](const Envelope& e) { log.push_back(e.payload); });

  FaultPlan plan;
  plan.dropProbability = 1.0;
  net.setDefaultPlan(plan);
  net.send("a", "b", gossipEnvelope("a", 1));
  EXPECT_TRUE(log.empty());

  plan = FaultPlan{};
  plan.throwProbability = 1.0;
  net.setDefaultPlan(plan);
  EXPECT_THROW(net.send("a", "b", gossipEnvelope("a", 2)), Error);

  plan = FaultPlan{};
  plan.corruptProbability = 1.0;
  net.setDefaultPlan(plan);
  net.send("a", "b", gossipEnvelope("a", 3, "0123456789"));
  // The envelope frame stays valid (it reached the handler); the payload
  // is a strict prefix, so the receiver's payload decode must fail.
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.back(), "01234");

  plan = FaultPlan{};
  plan.duplicateProbability = 1.0;
  net.setDefaultPlan(plan);
  net.send("a", "b", gossipEnvelope("a", 4));
  EXPECT_EQ(log.size(), 3u);  // delivered twice back-to-back

  const auto f = net.faultCounters();
  EXPECT_EQ(f.seen, 4u);
  EXPECT_EQ(f.injectedDrops, 1u);
  EXPECT_EQ(f.injectedThrows, 1u);
  EXPECT_EQ(f.injectedCorruptions, 1u);
  EXPECT_EQ(f.injectedDuplicates, 1u);
  EXPECT_EQ(f.forwarded, 3u);
  EXPECT_EQ(inner.counters().delivered, 3u);

  // A broadcast fans out as one faultable send per attached peer, and
  // the decorator counts it once on top of the inner transport's counts.
  std::vector<std::string> cLog;
  net.attach("c", [&](const Envelope& e) { cLog.push_back(e.payload); });
  net.setDefaultPlan(FaultPlan{});
  net.broadcast("a", gossipEnvelope("a", 5, "fanout"));
  EXPECT_EQ(log.back(), "fanout");
  EXPECT_EQ(cLog, std::vector<std::string>{"fanout"});
  EXPECT_EQ(net.faultCounters().seen, 6u);
  const TransportCounters c = net.counters();
  EXPECT_EQ(c.broadcasts, 1u);
  EXPECT_EQ(inner.counters().broadcasts, 0u);
  EXPECT_EQ(c.delivered, 5u);
}

TEST(FaultyTransport, DelayReordersBehindFollowingTraffic) {
  LoopbackTransport inner;
  FaultyTransport net(inner, 7);
  std::vector<std::uint64_t> order;
  net.attach("b", [&](const Envelope& e) { order.push_back(e.seq); });

  FaultPlan delay;
  delay.delayProbability = 1.0;
  net.setDefaultPlan(delay);
  net.send("a", "b", gossipEnvelope("a", 1));
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(net.pendingDelayed(), 1u);

  net.clearFaults();  // plans drop; the delayed message stays pending
  net.send("a", "b", gossipEnvelope("a", 2));
  // True reordering: #2 forwards first, then releases the held-back #1.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(net.pendingDelayed(), 0u);

  // flushDelayed() releases stragglers when no follow-on traffic comes.
  net.setDefaultPlan(delay);
  net.send("a", "b", gossipEnvelope("a", 3));
  EXPECT_EQ(net.pendingDelayed(), 1u);
  EXPECT_EQ(net.flushDelayed(), 1u);
  EXPECT_EQ(order.back(), 3u);
  const auto f = net.faultCounters();
  EXPECT_EQ(f.injectedDelays, 2u);
  EXPECT_EQ(f.deliveredLate, 2u);
}

TEST(FaultyTransport, PartitionBlocksLinksUntilHealed) {
  LoopbackTransport inner;
  FaultyTransport net(inner, 7);
  std::size_t aHeard = 0, bHeard = 0;
  net.attach("a", [&](const Envelope&) { ++aHeard; });
  net.attach("b", [&](const Envelope&) { ++bHeard; });

  net.partition("a", "b");
  net.send("a", "b", gossipEnvelope("a", 1));
  net.send("b", "a", gossipEnvelope("b", 1));
  EXPECT_EQ(aHeard, 0u);
  EXPECT_EQ(bHeard, 0u);
  EXPECT_EQ(net.faultCounters().partitionedDrops, 2u);

  net.heal();
  net.send("a", "b", gossipEnvelope("a", 2));
  net.send("b", "a", gossipEnvelope("b", 2));
  EXPECT_EQ(aHeard, 1u);
  EXPECT_EQ(bHeard, 1u);

  // One-way partitions block only the named direction.
  net.partitionOneWay("a", "b");
  net.send("a", "b", gossipEnvelope("a", 3));
  net.send("b", "a", gossipEnvelope("b", 3));
  EXPECT_EQ(bHeard, 1u);
  EXPECT_EQ(aHeard, 2u);
}

TEST(FaultyTransport, ScheduleSwitchesPlansAtSeenCounts) {
  LoopbackTransport inner;
  FaultyTransport net(inner, 7);
  std::size_t heard = 0;
  net.attach("b", [&](const Envelope&) { ++heard; });

  // Drop storm starting at the 3rd message (seen == 2), calm again two
  // messages later — exact, reproducible points in the traffic.
  FaultPlan storm;
  storm.dropProbability = 1.0;
  net.scheduleDefaultPlan(2, storm);
  net.scheduleDefaultPlan(4, FaultPlan{});
  for (std::uint64_t i = 0; i < 6; ++i) {
    net.send("a", "b", gossipEnvelope("a", i + 1));
  }
  EXPECT_EQ(heard, 4u);
  EXPECT_EQ(net.faultCounters().injectedDrops, 2u);
}

TEST(FaultyTransport, SameSeedReproducesIdenticalFaults) {
  FaultPlan mixed;
  mixed.dropProbability = 0.2;
  mixed.corruptProbability = 0.2;
  mixed.duplicateProbability = 0.2;
  mixed.delayProbability = 0.2;

  const auto run = [&](std::uint64_t seed) {
    LoopbackTransport inner;
    FaultyTransport net(inner, seed);
    std::vector<std::string> log;
    net.attach("b", [&](const Envelope& e) { log.push_back(e.payload); });
    net.setDefaultPlan(mixed);
    for (std::uint64_t i = 0; i < 100; ++i) {
      net.send("a", "b", gossipEnvelope("a", i + 1, "payload" +
                                                        std::to_string(i)));
    }
    net.flushDelayed();
    return std::make_pair(net.faultCounters(), log);
  };

  const auto [f1, log1] = run(0xDECAF);
  const auto [f2, log2] = run(0xDECAF);
  EXPECT_EQ(f1.injectedDrops, f2.injectedDrops);
  EXPECT_EQ(f1.injectedCorruptions, f2.injectedCorruptions);
  EXPECT_EQ(f1.injectedDuplicates, f2.injectedDuplicates);
  EXPECT_EQ(f1.injectedDelays, f2.injectedDelays);
  EXPECT_EQ(f1.forwarded, f2.forwarded);
  EXPECT_EQ(log1, log2);  // byte-identical delivery sequence
  EXPECT_GT(f1.injectedDrops + f1.injectedCorruptions +
                f1.injectedDuplicates + f1.injectedDelays,
            0u);
}

// ---- snapshot store --------------------------------------------------------

std::string tempDir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tp_fleet_test_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(SnapshotStore, SaveLoadLatestAndSequencing) {
  const std::string dir = tempDir("store");
  SnapshotStore store(dir);
  EXPECT_EQ(store.count(), 0u);
  EXPECT_FALSE(store.loadLatest().has_value());

  ReplicaSnapshot first;
  first.modelVersion = 1;
  first.wins = {sampleWin("a/b", 3)};
  EXPECT_EQ(store.save(first), 1u);

  ReplicaSnapshot second;
  second.modelVersion = 2;
  second.models = {ModelBlob{"mc2", "mostfreq 4 2\n"}};
  second.wins = {sampleWin("a/b", 7), sampleWin("c/d", 1)};
  EXPECT_EQ(store.save(second), 2u);
  EXPECT_EQ(store.count(), 2u);

  const auto latest = store.loadLatest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->modelVersion, 2u);
  ASSERT_EQ(latest->models.size(), 1u);
  EXPECT_EQ(latest->models[0].machine, "mc2");
  ASSERT_EQ(latest->wins.size(), 2u);
  EXPECT_EQ(latest->wins[1].key.program, "c/d");

  // A second store over the same directory continues the sequence.
  SnapshotStore reopened(dir);
  EXPECT_EQ(reopened.save(first), 3u);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotStore, KeepLastPrunesOldSnapshotsAfterSave) {
  const std::string dir = tempDir("retention");
  constexpr std::size_t kKeep = 3;
  SnapshotStore store(dir, kKeep);
  EXPECT_EQ(store.keepLast(), kKeep);

  ReplicaSnapshot snap;
  for (std::uint64_t seq = 1; seq <= kKeep + 4; ++seq) {
    snap.modelVersion = seq;
    EXPECT_EQ(store.save(snap), seq);
    // Never more than kKeep on disk, and the latest always survives.
    EXPECT_LE(store.count(), kKeep);
    const auto latest = store.loadLatest();
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(latest->modelVersion, seq);
  }
  EXPECT_EQ(store.count(), kKeep);
  // The pruned files are genuinely gone (only the newest kKeep remain),
  // and the sequence numbering still continues past them.
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    std::ostringstream name;
    name << "snapshot-";
    name.width(8);
    name.fill('0');
    name << seq << ".tpsnap";
    EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(dir) /
                                         name.str()))
        << name.str();
  }
  EXPECT_EQ(store.save(snap), kKeep + 5);

  // keepLast = 0 keeps everything (the pre-retention behavior).
  const std::string unboundedDir = tempDir("retention_unbounded");
  SnapshotStore unbounded(unboundedDir);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) (void)unbounded.save(snap);
  EXPECT_EQ(unbounded.count(), 5u);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(unboundedDir);
}

TEST(SnapshotStore, HostileModelCountThrowsInsteadOfAllocating) {
  // Regression: the model-blob count in the snapshot header went straight
  // into models.reserve() unchecked (lint rule R3 caught it) — a corrupt
  // or hostile count claimed ~4e9 blobs against a few bytes of payload.
  ReplicaSnapshot snap;
  snap.modelVersion = 1;
  std::string bytes = encodeSnapshot(snap);
  // Header layout: u32 magic + u16 format version + u64 model version,
  // then the u32 model-blob count at offset 14.
  ASSERT_GE(bytes.size(), 18u);
  for (int i = 0; i < 4; ++i) bytes[14 + i] = static_cast<char>(0xff);
  EXPECT_THROW(decodeSnapshot(bytes), Error);
}

TEST(SnapshotStore, RejectsCorruptBytes) {
  EXPECT_THROW(decodeSnapshot("garbage"), Error);
  ReplicaSnapshot snap;
  snap.modelVersion = 9;
  const std::string bytes = encodeSnapshot(snap);
  EXPECT_THROW(decodeSnapshot(bytes.substr(0, bytes.size() / 2)), Error);
  const ReplicaSnapshot back = decodeSnapshot(bytes);
  EXPECT_EQ(back.modelVersion, 9u);
}

void corruptFile(const std::filesystem::path& path) {
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "garbage bytes, definitely not a snapshot";
}

std::filesystem::path snapshotPath(const std::string& dir, std::uint64_t seq) {
  std::ostringstream name;
  name << "snapshot-";
  name.width(8);
  name.fill('0');
  name << seq << ".tpsnap";
  return std::filesystem::path(dir) / name.str();
}

TEST(SnapshotStore, LoadLatestSalvagesOlderWhenNewestCorrupt) {
  const std::string dir = tempDir("salvage");
  SnapshotStore store(dir);
  ReplicaSnapshot snap;
  for (std::uint64_t v = 1; v <= 3; ++v) {
    snap.modelVersion = v;
    EXPECT_EQ(store.save(snap), v);
  }

  // Torn newest snapshot: warm start must degrade to the next-older
  // valid one instead of failing (or worse, trusting the bytes).
  corruptFile(snapshotPath(dir, 3));
  const auto salvaged = store.loadLatest();
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_EQ(salvaged->modelVersion, 2u);
  EXPECT_EQ(store.corruptSnapshotsSkipped(), 1u);

  // Everything corrupt: loadLatest reports nothing to recover, counting
  // every file it had to skip.
  corruptFile(snapshotPath(dir, 2));
  corruptFile(snapshotPath(dir, 1));
  EXPECT_FALSE(store.loadLatest().has_value());
  EXPECT_EQ(store.corruptSnapshotsSkipped(), 4u);  // 3 re-skipped + 2 + 1
  std::filesystem::remove_all(dir);
}

// One store shared by concurrent savers: every save gets its own
// sequence (no two share a number or a tmp path), and every file loads.
TEST(SnapshotStore, ConcurrentSavesGetDistinctSequences) {
  const std::string dir = tempDir("concurrent");
  SnapshotStore store(dir);  // keepLast = 0: every snapshot stays
  constexpr int kThreads = 4;
  constexpr int kSaves = 8;
  const std::string blob(std::size_t{1} << 20, 'm');
  std::vector<std::vector<std::uint64_t>> seqs(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> savers;
  for (int t = 0; t < kThreads; ++t) {
    savers.emplace_back([&, t] {
      ReplicaSnapshot snap;
      snap.models = {ModelBlob{"mc2", blob}};
      for (int i = 0; i < kSaves; ++i) {
        snap.modelVersion = static_cast<std::uint64_t>(t * 100 + i);
        try {
          seqs[t].push_back(store.save(snap));
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& saver : savers) saver.join();
  EXPECT_EQ(failures.load(), 0);

  std::set<std::uint64_t> distinct;
  for (const auto& perThread : seqs) {
    distinct.insert(perThread.begin(), perThread.end());
  }
  constexpr std::size_t kTotal = kThreads * kSaves;
  ASSERT_EQ(distinct.size(), kTotal) << "a sequence was handed out twice";
  EXPECT_EQ(*distinct.begin(), 1u);
  EXPECT_EQ(*distinct.rbegin(), kTotal);
  EXPECT_EQ(store.count(), kTotal);
  std::set<std::uint64_t> versions;
  for (const std::uint64_t seq : distinct) {
    std::ifstream in(snapshotPath(dir, seq), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const ReplicaSnapshot back = decodeSnapshot(bytes.str());
    ASSERT_EQ(back.models.size(), 1u);
    EXPECT_EQ(back.models[0].model, blob);
    versions.insert(back.modelVersion);
  }
  EXPECT_EQ(versions.size(), kTotal) << "every save landed in its own file";
  std::filesystem::remove_all(dir);
}

// ---- fleet end to end ------------------------------------------------------

const char* kScaleSrc = R"(
__kernel void scale(__global const float* in, __global float* out, int K) {
  int i = get_global_id(0);
  float x = in[i];
  float acc = 0.0f;
  for (int k = 0; k < K; k++) {
    acc += x * 1.0001f;
  }
  out[i] = acc;
}
)";

runtime::Task makeScaleTask(std::size_t n, int k) {
  static const runtime::CompiledKernel compiled =
      runtime::CompiledKernel::compile(kScaleSrc);
  auto in = std::make_shared<vcl::Buffer>(vcl::ElemKind::F32, n);
  auto out = std::make_shared<vcl::Buffer>(vcl::ElemKind::F32, n);
  return runtime::TaskBuilder(compiled, "scale")
      .global(n)
      .local(64)
      .arg(in)
      .arg(out)
      .arg(k)
      .build();
}

/// Tasks + a deliberately pessimal model over mc2: always CPU-only (the
/// paper's "default strategy" failure mode), so on the GPU-favored mc2
/// the refiner has guaranteed headroom to win against the prediction.
struct FleetFixture {
  sim::MachineConfig machine = sim::makeMc2();
  std::vector<runtime::Task> tasks;
  std::shared_ptr<const ml::Classifier> weakModel;

  FleetFixture() {
    const runtime::PartitioningSpace space(machine.numDevices(), 10);
    for (const std::size_t n : {1u << 12, 1u << 16, 1u << 20}) {
      for (const int k : {10, 2000}) {
        tasks.push_back(makeScaleTask(n, k));
      }
    }
    ml::Dataset seed;
    seed.numClasses = static_cast<int>(space.size());
    seed.featureNames = {"f0"};
    seed.add({0.0}, static_cast<int>(space.cpuOnlyIndex()), "seed");
    auto model = ml::makeClassifier("mostfreq");
    model->train(seed);
    weakModel = std::shared_ptr<const ml::Classifier>(std::move(model));
  }

  FleetConfig config(std::size_t replicas, bool gossipEnabled) const {
    FleetConfig fc;
    fc.replicas = replicas;
    fc.gossipEnabled = gossipEnabled;
    fc.service.refine = true;
    fc.service.refiner.exploreFraction = 0.5;
    // Finite probe budget; the simulation is deterministic, so one
    // sample per arm is the truth and probing converges. Merged remote
    // evidence (counts >= 1) therefore fills the budget: adopted wins
    // are never re-probed.
    fc.service.refiner.probeSamples = 1;
    fc.service.refiner.seed = 0xF1EE7;
    return fc;
  }

  serve::LaunchRequest request(std::size_t t) const {
    serve::LaunchRequest r;
    r.machine = machine.name;
    r.task = tasks[t % tasks.size()];
    return r;
  }
};

/// The value of `name` in a Prometheus exposition (-1 when absent).
double promValue(const std::string& exposition, const std::string& name) {
  const std::string line = "\n" + name + " ";
  const std::size_t at = exposition.find(line);
  if (at == std::string::npos) {
    ADD_FAILURE() << name << " missing from the exposition";
    return -1.0;
  }
  return std::stod(exposition.substr(at + line.size()));
}

/// Drive traffic at one replica until its refiner has adopted wins.
void refineReplica(Replica& replica, const FleetFixture& fx,
                   std::size_t requests) {
  for (std::size_t i = 0; i < requests; ++i) {
    (void)replica.call(fx.request(i));
  }
}

TEST(Fleet, GossipedWinIsAdoptedWithoutProbing) {
  FleetFixture fx;
  obs::Registry registry;  // outlives the fleet, which unhooks itself
  FleetConfig config = fx.config(3, /*gossipEnabled=*/true);
  config.service.metrics = &registry;
  Fleet fleet(config);
  fleet.addMachine(fx.machine, fx.weakModel);

  // Skewed traffic: only replica 0 sees (and probes) the workload.
  refineReplica(fleet.replica(0), fx, 400);
  const auto wins = fleet.replica(0).service().exportRefinedWins();
  ASSERT_FALSE(wins.empty()) << "replica 0 found no refinement wins";

  fleet.gossipRound();

  for (const std::size_t peer : {1u, 2u}) {
    Replica& replica = fleet.replica(peer);
    const auto stats = replica.stats();
    // Within one round peers that merged the wins re-offer them (their
    // own state changed), so a peer may hear each win more than once —
    // but only the first merge adopts; re-merges are idempotent updates.
    EXPECT_GE(stats.fleet.winsReceived, wins.size());
    EXPECT_EQ(stats.fleet.winsMerged, stats.fleet.winsReceived);
    EXPECT_EQ(stats.fleet.winsAdopted, wins.size());
    // Every gossiped win serves immediately — refined label, no probe.
    for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
      const auto response = replica.call(fx.request(t));
      EXPECT_FALSE(response.explored);
    }
    const auto after = replica.stats();
    EXPECT_EQ(after.refiner.explorations, 0u)
        << "replica " << peer << " probed a gossiped win";
    // The adopted incumbents match the discovering replica's exactly.
    const auto version = replica.service().modelVersion();
    for (const auto& win : wins) {
      const auto inc = replica.service().refinedIncumbent(win.key, version);
      ASSERT_TRUE(inc.tracked);
      EXPECT_EQ(inc.label, win.incumbentLabel);
      EXPECT_DOUBLE_EQ(inc.meanSeconds, win.incumbentMean);
    }
  }
  // The discovering replica re-hears its own wins but never re-adopts.
  EXPECT_EQ(fleet.replica(0).stats().fleet.winsAdopted, 0u);

  // Counter reconciliation on every replica.
  const auto stats = fleet.stats();
  for (const auto& s : stats.replicas) {
    EXPECT_EQ(s.fleet.winsReceived, s.fleet.winsMerged +
                                        s.fleet.winsRejectedStale +
                                        s.fleet.winsDropped);
  }
  EXPECT_EQ(stats.transport.dropped, 0u);

  // Every replica's refiner readouts and the fleet's transport readouts,
  // through one exposition, agree with the stats they read.
  const std::string expo = registry.exportPrometheus();
  for (std::size_t r = 0; r < stats.replicas.size(); ++r) {
    const adapt::RefinerCounters& c = stats.replicas[r].refiner;
    const std::string p = "tp_replica_" + std::to_string(r) + "_serve_refiner_";
    EXPECT_EQ(promValue(expo, p + "decisions"), c.decisions);
    EXPECT_EQ(promValue(expo, p + "explorations"), c.explorations);
    EXPECT_EQ(promValue(expo, p + "exploitations"), c.exploitations);
    EXPECT_EQ(promValue(expo, p + "observations"), c.observations);
    EXPECT_EQ(promValue(expo, p + "wins"), c.wins);
    EXPECT_EQ(promValue(expo, p + "merged_wins"), c.mergedWins);
    EXPECT_EQ(promValue(expo, p + "resets"), c.resets);
    EXPECT_EQ(promValue(expo, p + "stale_observations"), c.staleObservations);
    EXPECT_EQ(promValue(expo, p + "untracked"), c.untracked);
    EXPECT_GT(promValue(expo, p + "tracked_keys"), 0.0) << "replica " << r;
  }
  const TransportCounters& t = stats.transport;
  EXPECT_GT(t.sent, 0u);  // replicas gossip per peer, not by broadcast
  EXPECT_EQ(promValue(expo, "tp_fleet_transport_sent"), t.sent);
  EXPECT_EQ(promValue(expo, "tp_fleet_transport_broadcasts"), t.broadcasts);
  EXPECT_EQ(promValue(expo, "tp_fleet_transport_delivered"), t.delivered);
  EXPECT_EQ(promValue(expo, "tp_fleet_transport_bytes_moved"), t.bytesMoved);
  EXPECT_EQ(promValue(expo, "tp_fleet_transport_dropped"), t.dropped);
  EXPECT_EQ(promValue(expo, "tp_fleet_transport_delivery_failures"),
            t.deliveryFailures);
  EXPECT_EQ(promValue(expo, "tp_fleet_transport_gossip_round_errors"),
            stats.gossipRoundErrors);
}

TEST(Fleet, HealthRulesCoverEveryReplicaAndFlagStalledGossip) {
  FleetFixture fx;
  Fleet fleet(fx.config(2, /*gossipEnabled=*/true));
  fleet.addMachine(fx.machine, fx.weakModel);
  obs::HealthMonitor monitor;
  FleetHealthConfig rules;
  rules.gossipStallEvals = 2;
  fleet.registerHealthRules(monitor, rules);

  const auto stallEvents = [&](const std::string& replica, bool cleared) {
    std::size_t n = 0;
    for (const obs::HealthEvent& event : monitor.events()) {
      n += event.rule == replica + ".gossip_stall" && event.cleared == cleared;
    }
    return n;
  };
  // Rounds that never advance page once per replica, after two stalled
  // evaluations; one more round clears both.
  fleet.gossipRound();
  (void)monitor.evaluateOnce();  // baseline
  (void)monitor.evaluateOnce();
  EXPECT_EQ(stallEvents("replica-0", false), 0u);  // debounced
  (void)monitor.evaluateOnce();
  (void)monitor.evaluateOnce();
  for (const std::string replica : {"replica-0", "replica-1"}) {
    EXPECT_EQ(stallEvents(replica, false), 1u) << replica;
    EXPECT_EQ(stallEvents(replica, true), 0u) << replica;
  }
  fleet.gossipRound();
  (void)monitor.evaluateOnce();
  for (const std::string replica : {"replica-0", "replica-1"}) {
    EXPECT_EQ(stallEvents(replica, true), 1u) << replica;
  }
  // Only the stalls fired: every service stock rule and retrain_overrun
  // stayed quiet. Each replica's rules carry its own prefix: the five
  // stock service rules (refinement on, breaker off) under its metrics
  // prefix, gossip_stall and retrain_overrun under its id.
  const obs::HealthCounters counters = monitor.counters();
  EXPECT_EQ(counters.eventsEmitted, 2u);
  EXPECT_EQ(counters.ruleErrors, 0u);
  for (const std::string replica : {"0", "1"}) {
    EXPECT_EQ(monitor.removeRulesByPrefix("replica_" + replica + ".serve."),
              5u);
    EXPECT_EQ(monitor.removeRulesByPrefix("replica-" + replica + "."), 2u);
  }
}

TEST(Fleet, GossipSkipsNoChangeRounds) {
  FleetFixture fx;
  Fleet fleet(fx.config(2, /*gossipEnabled=*/true));
  fleet.addMachine(fx.machine, fx.weakModel);

  refineReplica(fleet.replica(0), fx, 300);
  fleet.gossipRound();
  const auto sentAfterFirst = fleet.replica(0).stats().fleet.winsSent;
  ASSERT_GT(sentAfterFirst, 0u);

  // No new wins: the digest is unchanged, the round sends nothing.
  fleet.gossipRound();
  fleet.gossipRound();
  const auto stats = fleet.replica(0).stats();
  EXPECT_EQ(stats.fleet.winsSent, sentAfterFirst);
  EXPECT_GE(stats.fleet.gossipRoundsSkipped, 2u);
}

TEST(Fleet, StaleVersionWinsAreRejected) {
  FleetFixture fx;
  Fleet fleet(fx.config(2, /*gossipEnabled=*/true));
  fleet.addMachine(fx.machine, fx.weakModel);

  refineReplica(fleet.replica(0), fx, 300);
  auto wins = fleet.replica(0).service().exportRefinedWins();
  ASSERT_FALSE(wins.empty());

  // Tamper: a win learned against a generation the fleet never had.
  for (auto& win : wins) win.modelVersion += 10;
  const auto result = fleet.replica(1).service().mergeRemoteWins(wins);
  EXPECT_EQ(result.stale, wins.size());
  EXPECT_EQ(result.merged(), 0u);
}

TEST(Fleet, MergeRejectsOutOfSpaceLabels) {
  FleetFixture fx;
  Fleet fleet(fx.config(1, /*gossipEnabled=*/false));
  fleet.addMachine(fx.machine, fx.weakModel);
  auto& service = fleet.replica(0).service();
  const std::size_t spaceSize = service.space(fx.machine.name).size();

  // A hostile record whose labels lie outside the partitioning space: if
  // it were merged and cached, every warm request for the key would
  // throw instead of serving.
  adapt::WinRecord hostile = sampleWin("scale/scale", spaceSize + 5);
  hostile.modelVersion = service.modelVersion();
  hostile.baseLabel = 0;
  hostile.arms = {{0, 3, 1.0}, {spaceSize + 5, 3, 0.001}};
  const auto result = service.mergeRemoteWins({hostile});
  EXPECT_EQ(result.dropped, 1u);
  EXPECT_EQ(result.merged(), 0u);

  // Out-of-space arm labels are equally rejected, even with a valid
  // incumbent.
  adapt::WinRecord badArm = sampleWin("scale/scale", 1);
  badArm.modelVersion = service.modelVersion();
  badArm.baseLabel = 0;
  badArm.arms = {{0, 3, 1.0}, {spaceSize, 3, 0.001}};
  EXPECT_EQ(service.mergeRemoteWins({badArm}).dropped, 1u);

  // The service still serves the launch normally.
  const auto response = fleet.replica(0).call(fx.request(0));
  EXPECT_LT(response.label, spaceSize);
  EXPECT_GT(response.execution.makespan, 0.0);
}

TEST(Fleet, SameGenerationInstallDropsCachedDecisions) {
  FleetFixture fx;
  // Refinement off: this test pins the cache/model path, and a refiner
  // entry surviving the same-generation install would (correctly) keep
  // serving its measured incumbent instead of the fresh prediction.
  FleetConfig fc = fx.config(1, /*gossipEnabled=*/false);
  fc.service.refine = false;
  Fleet fleet(fc);
  fleet.addMachine(fx.machine, fx.weakModel);
  auto& service = fleet.replica(0).service();
  // Warm the cache under the weak (CPU-only) model.
  for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
    (void)fleet.replica(0).call(fx.request(t));
  }
  ASSERT_GT(service.cache().size(), 0u);

  // Install a different model AT the current generation (what a racing
  // second retrain coordinator produces): the old model's labels must
  // not keep serving as hits under the same version.
  const runtime::PartitioningSpace& space = service.space(fx.machine.name);
  ml::Dataset seed;
  seed.numClasses = static_cast<int>(space.size());
  seed.featureNames = {"f0"};
  seed.add({0.0}, static_cast<int>(space.singleDeviceIndex(1)), "seed");
  auto model = ml::makeClassifier("mostfreq");
  model->train(seed);
  service.installModels(
      {{fx.machine.name, std::shared_ptr<const ml::Classifier>(
                             std::move(model))}},
      service.modelVersion());

  EXPECT_EQ(service.cache().size(), 0u);
  // Served decisions now come from the new model, not stale cache hits.
  const auto response = fleet.replica(0).call(fx.request(0));
  EXPECT_FALSE(response.cacheHit);
  EXPECT_EQ(response.label, space.singleDeviceIndex(1));
}

TEST(Fleet, RetrainFansOutModelsAndInvalidatesCaches) {
  FleetFixture fx;
  Fleet fleet(fx.config(3, /*gossipEnabled=*/true));
  fleet.addMachine(fx.machine, fx.weakModel);

  // Each replica records distinct feedback traffic.
  for (std::size_t r = 0; r < fleet.size(); ++r) {
    for (std::size_t t = r; t < fx.tasks.size(); t += fleet.size()) {
      (void)fleet.replica(r).call(fx.request(t));
    }
  }
  const auto before = fleet.replica(1).service().modelVersion();
  const auto result = fleet.retrainFleet(/*leader=*/0);
  EXPECT_EQ(result.peersHeard, 2u);
  EXPECT_EQ(result.modelVersion, before + 1);
  // The union covers every distinct launch even though no single replica
  // saw them all.
  EXPECT_EQ(result.recordsUsed, fx.tasks.size());
  EXPECT_EQ(result.machinesRetrained, 1u);

  for (std::size_t r = 0; r < fleet.size(); ++r) {
    auto& service = fleet.replica(r).service();
    EXPECT_EQ(service.modelVersion(), result.modelVersion);
    // All replicas serve identical post-retrain decisions (byte-identical
    // models were fanned out).
    for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
      EXPECT_EQ(service.predictLabel(fx.machine.name, fx.tasks[t]),
                fleet.replica(0).service().predictLabel(fx.machine.name,
                                                        fx.tasks[t]));
    }
    EXPECT_EQ(fleet.replica(r).stats().fleet.modelInstalls, 1u);
  }
}

TEST(Fleet, CallLeavesTheRequestUntouchedAndUnreferenced) {
  // Fleet::call and Replica::call borrow the request down to the
  // service, like PartitionService::call.
  static_assert(std::is_same_v<decltype(&Fleet::call),
                               serve::LaunchResponse (Fleet::*)(
                                   const serve::LaunchRequest&)>);
  static_assert(std::is_same_v<decltype(&Replica::call),
                               serve::LaunchResponse (Replica::*)(
                                   const serve::LaunchRequest&)>);
  FleetFixture fx;
  FleetConfig config = fx.config(2, /*gossipEnabled=*/false);
  config.service.refine = false;  // no probes: a repeat serves one label
  config.service.recordFeedback = true;
  Fleet fleet(config);
  fleet.addMachine(fx.machine, fx.weakModel);

  serve::LaunchRequest request = fx.request(0);
  const testing_support::RequestState before =
      testing_support::requestState(request);
  // Round-robin: a miss on each replica, then a hit on each.
  std::vector<serve::LaunchResponse> responses;
  for (std::size_t i = 0; i < 2 * fleet.size(); ++i) {
    responses.push_back(fleet.call(request));
    EXPECT_EQ(testing_support::requestState(request), before) << "call " << i;
    EXPECT_EQ(responses[i].cacheHit, i >= fleet.size()) << "call " << i;
    EXPECT_EQ(responses[i].label, responses[0].label) << "call " << i;
  }
  for (std::size_t r = 0; r < fleet.size(); ++r) {
    EXPECT_EQ(fleet.replica(r).service().stats().feedbackRecords, 1u);
  }
}

TEST(Fleet, RejectsARetrainSpecItCannotShip) {
  // Replicas ship retrained models as saved blobs; a kind the loader
  // rejects must fail at construction, not halfway through a retrain.
  FleetFixture fx;
  for (const char* spec : {"tree", "tree:4", "knn:3", "mlp:8"}) {
    FleetConfig fc = fx.config(2, /*gossipEnabled=*/false);
    fc.service.retrainSpec = spec;
    EXPECT_THROW(Fleet{fc}, Error) << spec;
  }
  for (const char* spec : {"forest:4", "mostfreq"}) {
    FleetConfig fc = fx.config(2, /*gossipEnabled=*/false);
    fc.service.retrainSpec = spec;
    EXPECT_NO_THROW(Fleet{fc}) << spec;
  }
}

// ---- snapshot round-trip property test -------------------------------------

TEST(Fleet, SnapshotRoundTripReproducesDecisionsAndIncumbents) {
  FleetFixture fx;
  const std::string dir = tempDir("roundtrip");

  FleetConfig fc = fx.config(1, /*gossipEnabled=*/false);
  fc.snapshotDir = dir;
  fc.replicas = 1;

  std::vector<std::size_t> decisions;
  std::vector<adapt::WinRecord> exported;
  std::uint64_t version = 0;
  {
    Fleet fleet(fc);
    fleet.addMachine(fx.machine, fx.weakModel);
    refineReplica(fleet.replica(0), fx, 500);
    auto& replica = fleet.replica(0);
    version = replica.service().modelVersion();
    exported = replica.service().exportRefinedWins(/*refinedOnly=*/false);
    ASSERT_FALSE(exported.empty());
    // Record the steady-state decision for every launch signature.
    for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
      for (int attempt = 0; attempt < 64; ++attempt) {
        const auto response = replica.call(fx.request(t));
        if (response.explored) continue;
        decisions.push_back(response.label);
        break;
      }
    }
    ASSERT_EQ(decisions.size(), fx.tasks.size());
    EXPECT_GT(replica.saveSnapshot(), 0u);
    EXPECT_EQ(replica.stats().fleet.snapshotsWritten, 1u);
  }  // fleet torn down: the "kill" half of kill + restart

  // A fresh replica over the same snapshot directory, seeded with the
  // same weak deployment model.
  Fleet restarted(fc);
  restarted.addMachine(fx.machine, fx.weakModel);
  auto& replica = restarted.replica(0);
  ASSERT_TRUE(replica.warmStart());
  EXPECT_EQ(replica.stats().fleet.snapshotsLoaded, 1u);
  EXPECT_EQ(replica.service().modelVersion(), version);

  // Identical incumbent (label AND mean) for every tracked key...
  for (const auto& win : exported) {
    const auto inc = replica.service().refinedIncumbent(win.key, version);
    ASSERT_TRUE(inc.tracked);
    EXPECT_EQ(inc.label, win.incumbentLabel);
    EXPECT_DOUBLE_EQ(inc.meanSeconds, win.incumbentMean);
  }
  // ...and identical served decisions for every launch signature, with
  // zero probes (the snapshot's evidence fills the probe budget).
  for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
    const auto response = replica.call(fx.request(t));
    EXPECT_FALSE(response.explored);
    EXPECT_EQ(response.label, decisions[t]) << "task " << t;
  }
  EXPECT_EQ(replica.stats().refiner.explorations, 0u);
  std::filesystem::remove_all(dir);
}

// ---- concurrency (TSan target) ---------------------------------------------

TEST(Fleet, CountersReconcileUnderConcurrentGossipAndRetrain) {
  FleetFixture fx;
  Fleet fleet(fx.config(3, /*gossipEnabled=*/true));
  fleet.addMachine(fx.machine, fx.weakModel);

  constexpr std::size_t kClients = 3;
  constexpr std::size_t kRequestsPerClient = 120;
  std::atomic<std::uint64_t> faults{0};

  std::vector<std::thread> workers;
  for (std::size_t c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        const auto response =
            fleet.call(fx.request(c * kRequestsPerClient + i));
        if (response.execution.makespan <= 0.0) faults.fetch_add(1);
      }
    });
  }
  workers.emplace_back([&] {
    for (int round = 0; round < 20; ++round) {
      fleet.gossipRound();
      std::this_thread::yield();
    }
  });
  workers.emplace_back([&] {
    for (int retrain = 0; retrain < 2; ++retrain) {
      (void)fleet.retrainFleet(0);
      std::this_thread::yield();
    }
  });
  for (auto& w : workers) w.join();
  fleet.drainAll();

  EXPECT_EQ(faults.load(), 0u);
  const auto stats = fleet.stats();
  std::uint64_t completed = 0;
  for (const auto& s : stats.replicas) {
    completed += s.requestsCompleted;
    EXPECT_EQ(s.requestsFailed, 0u);
    EXPECT_EQ(s.requestsCompleted, s.requestsSubmitted);
    // Gossip/snapshot counters reconcile exactly.
    EXPECT_EQ(s.fleet.winsReceived, s.fleet.winsMerged +
                                        s.fleet.winsRejectedStale +
                                        s.fleet.winsDropped);
    // Cache and refiner counters stay consistent through concurrent
    // merges, invalidations and version bumps.
    EXPECT_EQ(s.cache.hits + s.cache.misses, s.cache.lookups);
    EXPECT_LE(s.cache.evictions, s.cache.insertions);
    EXPECT_EQ(s.refiner.decisions, s.refiner.explorations +
                                       s.refiner.exploitations +
                                       s.refiner.untracked);
    // Both fleet retrains were installed everywhere.
    EXPECT_EQ(s.fleet.modelInstalls, 2u);
  }
  EXPECT_EQ(completed, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.transport.dropped, 0u);
}

// ---- chaos: replicas over a faulty transport -------------------------------

/// Replica config for manual wiring over a FaultyTransport (what Fleet
/// does internally, minus the fleet so tests control every link).
/// Backoff base 0 = a failed peer is retried on the very next round;
/// retrainWaitSeconds small = partitioned coordinators abort fast.
ReplicaConfig chaosReplicaConfig(const FleetFixture& fx, const std::string& id,
                                 std::size_t index) {
  ReplicaConfig rc;
  rc.id = id;
  rc.service = fx.config(1, /*gossipEnabled=*/false).service;
  rc.service.refiner.seed += 0x9E3779B9ull * index;
  rc.retryBackoffBaseSeconds = 0.0;
  rc.retryBackoffCapSeconds = 0.0;
  rc.retrainWaitSeconds = 0.05;
  return rc;
}

TEST(Fleet, GossipSendFailureBacksOffAndRetries) {
  FleetFixture fx;
  LoopbackTransport inner;
  FaultyTransport net(inner, 0xC0FFEE);
  Replica r0(chaosReplicaConfig(fx, "r0", 0), net);
  Replica r1(chaosReplicaConfig(fx, "r1", 1), net);
  r0.addMachine(fx.machine, fx.weakModel);
  r1.addMachine(fx.machine, fx.weakModel);
  refineReplica(r0, fx, 400);
  const auto wins = r0.service().exportRefinedWins();
  ASSERT_FALSE(wins.empty());

  FaultPlan throwing;
  throwing.throwProbability = 1.0;
  net.setPlan("r0", "r1", throwing);
  r0.publishWins();
  auto g0 = r0.stats().fleet;
  EXPECT_EQ(g0.sendFailures, 1u);
  EXPECT_EQ(g0.sendRetries, 0u);
  EXPECT_EQ(r0.stats().fleet.winsSent, 0u);  // nothing delivered
  EXPECT_EQ(r1.stats().fleet.winsReceived, 0u);

  // The link heals. The next round is digest-quiet (no new local state),
  // but the failed peer is retried anyway — recovery must not be gated
  // on new wins.
  net.clearFaults();
  r0.publishWins();
  g0 = r0.stats().fleet;
  EXPECT_EQ(g0.sendFailures, 1u);
  EXPECT_EQ(g0.sendRetries, 1u);
  EXPECT_GT(r0.stats().fleet.winsSent, 0u);
  const auto s1 = r1.stats().fleet;
  EXPECT_GT(s1.winsReceived, 0u);
  EXPECT_EQ(s1.winsAdopted, wins.size());  // converged despite the outage

  // Healthy again: no further retries are recorded for this peer.
  r0.publishWins();
  EXPECT_EQ(r0.stats().fleet.sendRetries, 1u);
}

TEST(Fleet, DuplicatedDeliveriesAreRejectedByReplayWindow) {
  FleetFixture fx;
  LoopbackTransport inner;
  FaultyTransport net(inner, 0xD0D0);
  Replica r0(chaosReplicaConfig(fx, "r0", 0), net);
  Replica r1(chaosReplicaConfig(fx, "r1", 1), net);
  r0.addMachine(fx.machine, fx.weakModel);
  r1.addMachine(fx.machine, fx.weakModel);
  refineReplica(r0, fx, 400);
  const auto wins = r0.service().exportRefinedWins();
  ASSERT_FALSE(wins.empty());

  FaultPlan duplicating;
  duplicating.duplicateProbability = 1.0;
  net.setPlan("r0", "r1", duplicating);
  r0.publishWins();

  EXPECT_EQ(net.faultCounters().injectedDuplicates, 1u);
  const auto g1 = r1.stats().fleet;
  EXPECT_EQ(g1.envelopesReceived, 2u);  // both copies reached the handler
  EXPECT_EQ(g1.replaysRejected, 1u);    // the second was rejected by seq
  const auto s1 = r1.stats().fleet;
  // Merged exactly once: the duplicate never re-counted a win.
  EXPECT_EQ(s1.winsMerged, s1.winsReceived);
  EXPECT_EQ(s1.winsAdopted, wins.size());
}

TEST(Fleet, CorruptPayloadsAreCountedRejections) {
  FleetFixture fx;
  LoopbackTransport inner;
  FaultyTransport net(inner, 0xBAD);
  Replica r0(chaosReplicaConfig(fx, "r0", 0), net);
  Replica r1(chaosReplicaConfig(fx, "r1", 1), net);
  r0.addMachine(fx.machine, fx.weakModel);
  r1.addMachine(fx.machine, fx.weakModel);
  refineReplica(r0, fx, 400);

  FaultPlan corrupting;
  corrupting.corruptProbability = 1.0;
  net.setPlan("r0", "r1", corrupting);
  r0.publishWins();

  EXPECT_EQ(net.faultCounters().injectedCorruptions, 1u);
  const auto g1 = r1.stats().fleet;
  EXPECT_EQ(g1.envelopesReceived, 1u);
  EXPECT_EQ(g1.decodeFailures, 1u);  // injected corruption == observed
  EXPECT_EQ(r1.stats().fleet.winsReceived, 0u);
  // The replica's boundary absorbed it: the transport never saw the
  // handler throw, and the replica still serves traffic.
  EXPECT_EQ(inner.counters().deliveryFailures, 0u);
  EXPECT_GT(r1.call(fx.request(0)).execution.makespan, 0.0);
}

TEST(Fleet, PartitionedCoordinatorAbortsRetrainWithoutQuorum) {
  FleetFixture fx;
  LoopbackTransport inner;
  FaultyTransport net(inner, 0x5117);
  Replica r0(chaosReplicaConfig(fx, "r0", 0), net);
  Replica r1(chaosReplicaConfig(fx, "r1", 1), net);
  Replica r2(chaosReplicaConfig(fx, "r2", 2), net);
  for (Replica* r : {&r0, &r1, &r2}) {
    r->addMachine(fx.machine, fx.weakModel);
  }
  for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
    (void)r0.call(fx.request(t));
  }

  // The coordinator is cut off from both peers: its lease requests die
  // in the partition, the self-grant alone misses quorum, and the
  // retrain must be a safe no-op.
  net.partition("r0", "r1");
  net.partition("r0", "r2");
  const auto before = r1.service().modelVersion();
  const auto result = r0.coordinateRetrain();
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.quorumNeeded, 2u);
  EXPECT_EQ(result.leaseGrants, 1u);  // only the self-grant
  EXPECT_EQ(r0.stats().fleet.retrainsAborted, 1u);
  EXPECT_EQ(r0.service().modelVersion(), before);
  EXPECT_EQ(r1.service().modelVersion(), before);
  EXPECT_GE(net.faultCounters().partitionedDrops, 2u);

  // Healed, the same coordinator wins quorum and fans out normally.
  net.heal();
  const auto again = r0.coordinateRetrain();
  EXPECT_FALSE(again.aborted);
  EXPECT_EQ(again.leaseGrants, 3u);
  EXPECT_EQ(r0.service().modelVersion(), again.modelVersion);
  EXPECT_EQ(r1.service().modelVersion(), again.modelVersion);
  EXPECT_EQ(r2.service().modelVersion(), again.modelVersion);
}

// ---- quorum / lease --------------------------------------------------------

TEST(Fleet, RetrainAbortsWhileLeaseHeldElsewhereAndResumesAfterExpiry) {
  FleetFixture fx;
  Fleet fleet(fx.config(3, /*gossipEnabled=*/true));
  fleet.addMachine(fx.machine, fx.weakModel);
  for (std::size_t r = 0; r < fleet.size(); ++r) {
    for (std::size_t t = r; t < fx.tasks.size(); t += fleet.size()) {
      (void)fleet.replica(r).call(fx.request(t));
    }
  }
  const std::uint64_t generation =
      fleet.replica(0).service().modelVersion() + 1;

  // An "intruder" coordinator grabs the lease for the next generation on
  // both peers with a long TTL (then drops off the transport, as a
  // crashed coordinator would).
  auto& transport = fleet.transport();
  std::vector<LeaseReplyMsg> replies;
  transport.attach("intruder", [&](const Envelope& e) {
    if (e.kind == MsgKind::LeaseReply) {
      replies.push_back(decodeLeaseReply(e.payload));
    }
  });
  LeaseRequestMsg request;
  request.generation = generation;
  request.ttlNanos = static_cast<std::uint64_t>(3600e9);
  Envelope env;
  env.kind = MsgKind::LeaseRequest;
  env.from = "intruder";
  env.payload = encodeLeaseRequest(request);
  env.seq = 1;
  transport.send("intruder", "replica-1", env);
  env.seq = 2;
  transport.send("intruder", "replica-2", env);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(replies[0].granted && replies[1].granted);
  transport.detach("intruder");

  // The real coordinator self-grants but both peers refuse: safe no-op.
  const auto aborted = fleet.retrainFleet(0);
  EXPECT_TRUE(aborted.aborted);
  EXPECT_EQ(aborted.leaseGrants, 1u);
  EXPECT_EQ(aborted.quorumNeeded, 2u);
  EXPECT_EQ(fleet.replica(0).service().modelVersion(), generation - 1);
  EXPECT_EQ(fleet.replica(0).stats().fleet.retrainsAborted, 1u);
  for (std::size_t r = 0; r < fleet.size(); ++r) {
    EXPECT_EQ(fleet.replica(r).stats().fleet.modelInstalls, 0u);
  }

  // The intruder "crashes": renew its lease with a ttl that is already
  // expired by the next clock read. Expiry frees the fleet — the same
  // coordinator now wins quorum and fans out.
  transport.attach("intruder", [](const Envelope&) {});
  request.ttlNanos = 0;
  env.payload = encodeLeaseRequest(request);
  env.seq = 3;
  transport.send("intruder", "replica-1", env);
  env.seq = 4;
  transport.send("intruder", "replica-2", env);
  transport.detach("intruder");

  const auto result = fleet.retrainFleet(0);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.modelVersion, generation);
  for (std::size_t r = 0; r < fleet.size(); ++r) {
    EXPECT_EQ(fleet.replica(r).service().modelVersion(), generation);
    EXPECT_EQ(fleet.replica(r).stats().fleet.modelInstalls, 1u);
  }
}

TEST(Fleet, RacingCoordinatorsCannotFanOutConflictingGenerations) {
  FleetFixture fx;
  Fleet fleet(fx.config(3, /*gossipEnabled=*/true));
  fleet.addMachine(fx.machine, fx.weakModel);
  for (std::size_t r = 0; r < fleet.size(); ++r) {
    for (std::size_t t = r; t < fx.tasks.size(); t += fleet.size()) {
      (void)fleet.replica(r).call(fx.request(t));
    }
  }
  const std::uint64_t before = fleet.replica(0).service().modelVersion();

  // Two coordinators race. Overlapping, at most one can win the lease
  // quorum (the third replica grants exactly one of them); sequential,
  // both may win but at distinct generations. Either way no two
  // successful retrains may share a generation.
  Replica::FleetRetrain ra, rb;
  std::thread ta([&] { ra = fleet.retrainFleet(0); });
  std::thread tb([&] { rb = fleet.retrainFleet(1); });
  ta.join();
  tb.join();

  const std::size_t succeeded =
      static_cast<std::size_t>(!ra.aborted) +
      static_cast<std::size_t>(!rb.aborted);
  EXPECT_GE(succeeded, 1u);  // somebody always wins the race
  if (succeeded == 2) {
    EXPECT_NE(ra.modelVersion, rb.modelVersion);
  }
  std::uint64_t abortsCounted = 0;
  for (std::size_t r = 0; r < fleet.size(); ++r) {
    abortsCounted += fleet.replica(r).stats().fleet.retrainsAborted;
  }
  EXPECT_EQ(abortsCounted, 2u - succeeded);

  // One clean sequential retrain afterwards reconverges the fleet: every
  // replica serves the same generation and identical decisions.
  const auto final = fleet.retrainFleet(0);
  EXPECT_FALSE(final.aborted);
  for (std::size_t r = 0; r < fleet.size(); ++r) {
    auto& service = fleet.replica(r).service();
    EXPECT_EQ(service.modelVersion(), final.modelVersion);
    EXPECT_GT(final.modelVersion, before);
    for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
      EXPECT_EQ(service.predictLabel(fx.machine.name, fx.tasks[t]),
                fleet.replica(0).service().predictLabel(fx.machine.name,
                                                        fx.tasks[t]));
    }
  }
}

// ---- snapshot salvage through a replica ------------------------------------

TEST(Fleet, WarmStartSalvagesCorruptNewestSnapshot) {
  FleetFixture fx;
  const std::string dir = tempDir("salvage_fleet");
  FleetConfig fc = fx.config(1, /*gossipEnabled=*/false);
  fc.snapshotDir = dir;
  fc.replicas = 1;
  const std::string storeDir = dir + "/replica-0";

  {
    Fleet fleet(fc);
    fleet.addMachine(fx.machine, fx.weakModel);
    for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
      (void)fleet.replica(0).call(fx.request(t));
    }
    (void)fleet.replica(0).service().retrain();  // -> generation 1
    EXPECT_EQ(fleet.replica(0).saveSnapshot(), 1u);
    for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
      (void)fleet.replica(0).call(fx.request(t));
    }
    (void)fleet.replica(0).service().retrain();  // -> generation 2
    EXPECT_EQ(fleet.replica(0).saveSnapshot(), 2u);
  }

  // Bit rot on the newest snapshot: the restarted replica must fall back
  // to the older one instead of cold-starting (or crashing).
  corruptFile(snapshotPath(storeDir, 2));
  {
    Fleet restarted(fc);
    restarted.addMachine(fx.machine, fx.weakModel);
    ASSERT_TRUE(restarted.replica(0).warmStart());
    const auto stats = restarted.replica(0).stats();
    EXPECT_EQ(stats.fleet.snapshotsLoaded, 1u);
    EXPECT_EQ(stats.fleet.snapshotsSalvaged, 1u);
    EXPECT_EQ(restarted.replica(0).service().modelVersion(), 1u);
    // Salvaged state serves: warm decisions at the salvaged generation.
    const auto response = restarted.replica(0).call(fx.request(0));
    EXPECT_EQ(response.modelVersion, 1u);
  }

  // Everything corrupt: warm start reports false and the replica serves
  // from its cold deployment model instead of dying.
  corruptFile(snapshotPath(storeDir, 1));
  {
    Fleet cold(fc);
    cold.addMachine(fx.machine, fx.weakModel);
    EXPECT_FALSE(cold.replica(0).warmStart());
    EXPECT_EQ(cold.replica(0).stats().fleet.snapshotsSalvaged, 2u);
    EXPECT_EQ(cold.replica(0).service().modelVersion(), 0u);
    EXPECT_GT(cold.replica(0).call(fx.request(0)).execution.makespan, 0.0);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tp::fleet
