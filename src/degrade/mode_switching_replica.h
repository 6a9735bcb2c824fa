// One object, two gears: Algorithm 1 while the timing envelope holds, the
// asynchronous quorum log when it breaks, switching live on the synchrony
// supervisor's signal with a drain-and-handoff at every boundary.
//
// Time is cut into *eras*.  Even eras run the paper's (hardened) replica
// algorithm; odd eras run per-era Paxos (quorum_engine.h).  Every era
// starts from an agreed object state and every boundary is agreed through
// the quorum log itself, so the merged history stays linearizable:
//
//   downgrade (sync era 2k -> async era 2k+1)
//     Each replica drains: it snapshots its own unresponded operations
//     (drain_own_unresponded), wipes the synchronous machinery, and
//     broadcasts a *drain report* -- the set of <ts, op> broadcasts it saw
//     this era.  When reports from all peers arrive (or a fallback timer
//     fires -- peers may be dead, which is why we are downgrading), the
//     replica proposes the union as the era's kBase.  The first kBase to
//     commit wins; every replica replays it in timestamp order from the
//     era's start state -- answering its own drained tokens from the
//     replay -- and enters the async era on the resulting state.  Drained
//     operations that missed the base are re-proposed as ordinary kOps.
//
//   async era
//     Invocations become kOp proposals; commits apply in slot order to
//     every copy; the origin answers its client at its own commit.
//
//   upgrade (async era 2k+1 -> sync era 2k+2)
//     A replica proposes kSeal; the first seal to commit ends the era --
//     everything the log chooses after it is void (own voided operations
//     are simply re-invoked in the new era).  Each replica adopts its
//     (identical) async state as the new era's start state and resumes
//     Algorithm 1.
//
// Crash-recovery rides the same stable-storage story as the quorum engine:
// member state survives a crash, only timers and the pending-operation slot
// are lost.  A recovered replica re-reads the supervisor's target era --
// if a downgrade happened (or was missed) while it was down, the drain
// carries its cut operation into the base and the client is answered with
// no reissue.  This is what lets a mode-switching system ride out storms
// that stall every fixed-mode variant (the chaos engine's degraded-mode
// oracle hunts exactly this claim).
//
// Documented limitations (tested as such, not hidden):
//   * An operation that executed at some replica before the drain but made
//     it into no drain report (origin crashed before reporting, reporter
//     partitioned past the fallback) evaporates from the base; the origin
//     re-proposes it if alive, else its token is given up.
//   * A crash-recovery *within* a sync era (no mode change) is
//     pause-resume: the replica rejoins but a cut operation may stall --
//     that is RecoverableReplicaProcess's job, not this class's.
//   * Stale synchronous timers surviving a downgrade fire within holdback
//     (u+eps) of the drain; the supervisor's 8d clean window keeps any
//     new sync era comfortably clear of them.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/hardened_replica.h"
#include "degrade/quorum_engine.h"
#include "degrade/synchrony_monitor.h"
#include "spec/snapshot.h"

namespace linbound {

/// The era-stamped frame around Algorithm 1's broadcast.
struct EraOpPayload final : TaggedPayload<EraOpPayload> {
  int era = 0;
  const OpBroadcastPayload* inner = nullptr;  ///< arena-owned
  EraOpPayload(int e, const OpBroadcastPayload* in) : era(e), inner(in) {}
};

/// The era-stamped frame around a quorum-engine message.  Sent raw (the
/// engine does its own retrying; the reliable link would re-retry it).
struct QEraPayload final : TaggedPayload<QEraPayload> {
  int era = 0;
  const MessagePayload* inner = nullptr;  ///< arena-owned
  QEraPayload(int e, const MessagePayload* in) : era(e), inner(in) {}
};

/// A draining replica's view of its ending sync era: every <ts, op>
/// broadcast it saw, plus its own not-yet-broadcast operations.
struct DrainReportPayload final : TaggedPayload<DrainReportPayload> {
  int era = 0;
  std::vector<BaseEntry> entries;
  DrainReportPayload(int e, std::vector<BaseEntry> es)
      : era(e), entries(std::move(es)) {}
};

class ModeSwitchingReplica final : public HardenedReplicaProcess,
                                   public QuorumHost,
                                   public ModeSwitchTarget {
 public:
  /// As HardenedReplicaProcess (delays computed against the hardened
  /// effective timing).
  ModeSwitchingReplica(std::shared_ptr<const ObjectModel> model,
                       AlgorithmDelays delays, HardenedParams link_params);

  /// Where a recovering replica re-reads the target era (signals fired
  /// while it was crashed are skipped, not queued).  Optional: without a
  /// monitor the replica simply never switches.
  void set_monitor(const SynchronyMonitor* monitor) { monitor_ = monitor; }

  void on_invoke(std::int64_t token, const Operation& op) override;
  void on_timer(TimerId id, const TimerTag& tag) override;
  void on_recover() override;

  // ModeSwitchTarget
  void on_mode_signal(int target_era) override;

  // QuorumHost
  PayloadArena& quorum_arena() override { return arena(); }
  void quorum_send(std::int64_t tag, ProcessId to,
                   const MessagePayload* payload) override;
  void quorum_set_timer(std::int64_t tag, Tick delta,
                        std::int64_t cookie) override;
  void quorum_committed(std::int64_t tag, std::int64_t slot,
                        const QuorumValue& value) override;

  // --- introspection (tests / harness) ---
  enum class Phase { kSync, kDraining, kAsync, kSealing };
  Phase phase() const { return phase_; }
  int era() const { return era_; }
  int downgrade_count() const { return downgrades_; }
  int upgrade_count() const { return upgrades_; }
  const QuorumEngine* engine_for(int era) const {
    auto it = engines_.find(era);
    return it == engines_.end() ? nullptr : it->second.get();
  }

 protected:
  /// Era-stamp Algorithm 1's broadcasts (and record them for the drain);
  /// everything else ships as-is through the reliable link.
  void send(ProcessId to, const MessagePayload* payload) override;

  /// Demultiplex deduplicated application traffic by payload kind and era.
  void deliver_app(ProcessId from, const MessagePayload& payload) override;

 private:
  /// Timer kinds; disjoint from ReplicaProcess (1..4) and the link (100).
  static constexpr int kDrainFallback = 200;
  static constexpr int kQuorumTimer = 300;

  /// An own synchronous-era operation whose response the drain took over.
  struct DrainedToken {
    std::optional<Operation> op;  ///< nullopt: recover from era_ops_ by ts
    std::int64_t token = -1;
    bool ack_only = false;
  };

  /// An own async-era proposal awaiting its commit.
  struct OwnAsyncOp {
    Operation op;
    std::int64_t token = -1;
    bool ack_only = false;
    bool responded = false;
  };

  /// How long a draining replica waits for missing drain reports before
  /// proposing a partial base: one framed round trip, 2 * d_eff + 1 --
  /// peers that miss it are exactly the dead/partitioned ones the
  /// downgrade is for.
  Tick drain_fallback_delay() const;
  QuorumEngine& ensure_engine(int era);

  void maybe_chain();
  void begin_downgrade();
  void begin_seal();
  void maybe_propose_base(bool force = false);
  void propose_own_op(const Operation& op, std::int64_t token, bool ack_only);

  void process_commits(int era);
  void handle_commit(int era, const QuorumValue& value);
  void apply_op(const QuorumValue& value);
  void do_base(int era, const QuorumValue& value);
  void do_seal(int era);
  void flush_deferred();

  const SynchronyMonitor* monitor_ = nullptr;

  Phase phase_ = Phase::kSync;
  int era_ = 0;        ///< current era (even while kSync/kDraining)
  int async_era_ = -1; ///< the odd era being drained into / run; -1 in sync
  int latest_target_ = 0;  ///< highest era the supervisor has asked for

  /// One engine per async era, created lazily (the acceptor role is always
  /// safe) and kept for the run: sealed eras still answer catch-up from
  /// laggards that crashed through them.
  std::map<int, std::unique_ptr<QuorumEngine>> engines_;

  /// The current sync era's broadcast history: every <ts, op> this replica
  /// sent or saw.  Feeds the drain report; kept through the async era so a
  /// leftover drained token can recover its operation; cleared at the seal.
  std::map<Timestamp, Operation> era_ops_;
  /// Object state the current era started from (agreed across replicas).
  Snapshot era_start_state_;

  // --- drain / downgrade state ---
  std::map<ProcessId, std::vector<BaseEntry>> reports_;
  std::map<Timestamp, DrainedToken> drained_tokens_;
  bool base_proposed_ = false;
  bool based_ = false;
  /// kOps the log chose before the era's base; applied right after it.
  std::vector<QuorumValue> pre_base_ops_;

  // --- async-era state ---
  Snapshot async_obj_;
  std::map<std::int64_t, OwnAsyncOp> own_async_tokens_;  ///< by op_id
  std::set<std::pair<ProcessId, std::int64_t>> applied_ids_;
  std::int64_t next_op_id_ = 0;

  /// Per-era commit log as delivered by the engines; eras ahead of us stay
  /// stashed until we get there (crash catch-up), and the cursor makes
  /// processing re-entrant (commits arrive inside engine delivery).
  std::map<int, std::vector<std::pair<std::int64_t, QuorumValue>>> commits_;
  std::map<int, std::size_t> commits_pos_;
  bool processing_commits_ = false;

  /// Invocations arriving mid-transition, replayed at the next stable phase.
  std::vector<std::pair<std::int64_t, Operation>> deferred_;
  /// Sync broadcasts stamped with a future era (sender switched first);
  /// replayed when we reach that era.
  struct FutureSyncOp {
    int era = 0;
    Timestamp ts{};
    Operation op;
  };
  std::vector<FutureSyncOp> future_sync_;

  int downgrades_ = 0;
  int upgrades_ = 0;
};

}  // namespace linbound
