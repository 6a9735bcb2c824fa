// End-to-end validation of the chaos-search engine: spec validation, the
// watchdog, oracle gating, search determinism, and -- the acceptance gate --
// each planted bug-mutant found by the search, shrunk to a handful of
// decisions, and replayed byte-identically from its repro bundle.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "chaos/chaos.h"
#include "chaos/search.h"
#include "chaos/shrink.h"
#include "sim/trace_io.h"

namespace linbound {
namespace {

ChaosRunSpec base_spec() {
  ChaosRunSpec spec;
  spec.n = 3;
  spec.timing = SystemTiming{1000, 400, 300};
  spec.ops_per_client = 4;
  spec.delay_seed = 21;
  spec.workload_seed = 22;
  return spec;
}

TEST(ChaosSpecValidation, RejectsNonsense) {
  {
    ChaosRunSpec s = base_spec();
    s.n = 1;
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    ChaosRunSpec s = base_spec();
    s.x = s.timing.d + s.timing.eps;  // past d+eps-u
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    ChaosRunSpec s = base_spec();
    s.event_budget = 0;
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    ChaosRunSpec s = base_spec();
    s.mutant = ChaosMutant::kNarrowWaits;  // requires hardened
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    ChaosRunSpec s = base_spec();
    s.variant = ChaosVariant::kHardened;
    s.mutant = ChaosMutant::kEagerMop;  // requires stock
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    ChaosRunSpec s = base_spec();
    s.faults.drop_p = 1.5;  // fault-layer validation is hooked in
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  EXPECT_NO_THROW(base_spec().validate());
}

TEST(ChaosRun, CleanRunIsOkAndDeterministic) {
  const ChaosRunSpec spec = base_spec();
  const ChaosRunResult a = run_chaos(spec);
  EXPECT_EQ(a.verdict, ChaosVerdict::kOk) << a.detail;
  EXPECT_EQ(a.status, RunStatus::kComplete);
  EXPECT_TRUE(a.linearizable);
  EXPECT_TRUE(a.assumptions_clean);
  EXPECT_TRUE(a.script.empty());

  const ChaosRunResult b = run_chaos(spec);
  EXPECT_EQ(b.trace_hash, a.trace_hash);
}

TEST(ChaosRun, EventBudgetWatchdogAbortsDeterministically) {
  ChaosRunSpec spec = base_spec();
  spec.event_budget = 40;  // far below what the workload needs
  const ChaosRunResult a = run_chaos(spec);
  EXPECT_EQ(a.verdict, ChaosVerdict::kAborted) << a.detail;
  EXPECT_EQ(a.status, RunStatus::kAborted);
  EXPECT_FALSE(a.wall_clock_tripped);  // event budget, not the wall clock
  EXPECT_TRUE(a.reproducible_violation());
  // The cut lands after exactly `event_budget` events, so the abort itself
  // is deterministic.
  EXPECT_EQ(run_chaos(spec).trace_hash, a.trace_hash);
}

TEST(ChaosRun, OverInjectionStaysOutOfCoverage) {
  // A stall window breaks every variant's model: whatever the outcome, the
  // oracles must attribute it to the fault, not the implementation.
  ChaosRunSpec spec = base_spec();
  spec.faults.stalls.push_back(StallWindow{0, 1000, 9000});
  const ChaosRunResult r = run_chaos(spec);
  EXPECT_FALSE(r.assumptions_clean);
  EXPECT_NE(r.verdict, ChaosVerdict::kNonLinearizable);
  EXPECT_NE(r.verdict, ChaosVerdict::kBoundViolated);
}

// --- run_chaos's whole output pinned on seven inputs ------------------------

/// The `index`-th spec of `variant`'s grid at a fixed base seed.
ChaosRunSpec grid_spec(ChaosVariant variant, std::size_t index,
                       ChaosMutant mutant = ChaosMutant::kNone) {
  ChaosSearchOptions options;
  options.variants = {variant};
  options.mutant = mutant;
  options.seeds = 1;
  options.base_seed = 0xc4a055eedULL;
  return chaos_search_grid(options).at(index);
}

std::string script_text(const FaultScript& script) {
  std::ostringstream os;
  write_fault_script(os, script);
  return os.str();
}

std::string bundle_text(const ReproBundle& bundle) {
  std::ostringstream os;
  write_repro_bundle(os, bundle);
  return os.str();
}

std::optional<ReproBundle> parse_bundle(const std::string& text,
                                        std::string* error = nullptr) {
  std::istringstream is(text);
  return read_repro_bundle(is, error);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

struct PinnedChaos {
  ChaosVerdict verdict;
  RunStatus status;
  const char* detail;
  std::uint64_t trace_hash;
  Tick worst_excess;
  std::uint64_t script_hash;  ///< FNV-1a of the faultscript v1 text
};

void expect_pinned(const ChaosRunSpec& spec, const PinnedChaos& want,
                   const char* label) {
  const ChaosRunResult got = run_chaos(spec);
  EXPECT_EQ(got.verdict, want.verdict)
      << label << ": " << chaos_verdict_name(got.verdict);
  EXPECT_EQ(got.status, want.status) << label;
  EXPECT_EQ(got.detail, want.detail) << label;
  EXPECT_EQ(got.trace_hash, want.trace_hash)
      << label << ": trace hash 0x" << std::hex << got.trace_hash;
  EXPECT_EQ(got.worst_excess, want.worst_excess) << label;
  const std::uint64_t script_hash = fnv1a(script_text(got.script));
  EXPECT_EQ(script_hash, want.script_hash)
      << label << ": script hash 0x" << std::hex << script_hash;
}

// Verdicts, details, trace hashes, latency excess and recorded fault
// scripts pinned on one spec per variant plus two planted eager-aop specs,
// so a change to how a run is simulated, judged or hashed is held to
// byte-identical results (the pattern of test_golden_hashes).  A change
// that moves one of these on purpose updates the constant and says why.
TEST(ChaosRun, ResultsPinned) {
  expect_pinned(grid_spec(ChaosVariant::kStock, 1),
                PinnedChaos{ChaosVerdict::kOk, RunStatus::kComplete, "ok",
                            0xde92a9abdc364969ull, 0, 0xeebdaadc89b44ff4ull},
                "stock queue");
  expect_pinned(grid_spec(ChaosVariant::kHardened, 12),
                PinnedChaos{ChaosVerdict::kOk, RunStatus::kComplete, "ok",
                            0x05e0729eeb516d6bull, 0, 0x71e80f48426d2a5eull},
                "hardened mix");
  expect_pinned(grid_spec(ChaosVariant::kRecoverable, 1),
                PinnedChaos{ChaosVerdict::kOk, RunStatus::kStalled, "ok",
                            0x71faffe4e88f3a77ull, 32700,
                            0xeebdaadc89b44ff4ull},
                "recoverable churn");
  expect_pinned(grid_spec(ChaosVariant::kQuorum, 6),
                PinnedChaos{ChaosVerdict::kOk, RunStatus::kComplete, "ok",
                            0xae643dc6afa47b4cull, 0, 0x25f8e02d4bab6634ull},
                "quorum churn");
  expect_pinned(grid_spec(ChaosVariant::kModeSwitching, 4),
                PinnedChaos{ChaosVerdict::kOk, RunStatus::kComplete, "ok",
                            0xbc541a964929a9e6ull, 0, 0xcbc378c8f6f19e3eull},
                "mode-switching storm");
  expect_pinned(grid_spec(ChaosVariant::kStock, 0, ChaosMutant::kEagerAop),
                PinnedChaos{ChaosVerdict::kNonLinearizable,
                            RunStatus::kComplete,
                            "non-linearizable while the stock guarantee "
                            "applied: p0 rmw(8) returned 9 but state reg(12) "
                            "determines 12",
                            0x29c30601819897bfull, 0, 0xeebdaadc89b44ff4ull},
                "eager-aop");
  // The mutant's queue spec under loss and duplication: non-linearizable,
  // but the stock guarantee no longer applies, so the detail carries the
  // audit's attribution.
  ChaosRunSpec faulted =
      grid_spec(ChaosVariant::kStock, 1, ChaosMutant::kEagerAop);
  faulted.faults.drop_p = 0.1;
  faulted.faults.dup_p = 0.1;
  expect_pinned(faulted,
                PinnedChaos{ChaosVerdict::kOk, RunStatus::kComplete,
                            "non-linearizable but out of coverage (NOT "
                            "linearizable, attributed to: reliable-delivery "
                            "violated 3x (first: message 2 from 1 to 0 sent at "
                            "tick 1000 dropped), give-ups=0)",
                            0x1478141151ca1388ull, 0, 0x38e06fed1ed3c797ull},
                "eager-aop under loss");
}

/// Folds one 64-bit word into an FNV-1a accumulator, byte by byte.
void fold(std::uint64_t& h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h = (h ^ ((word >> (8 * b)) & 0xff)) * 1099511628211ull;
  }
}

// The degraded backends' whole output on a small grid, folded into one
// pin: every quorum and mode-switching spec of a one-seed search grid (the
// quorum cells bring loss, spikes, a partition and churn with catch-up on
// recovery; three clients proposing back to back duel for slots; the
// mode-switching cells trip the supervisor).  Holds the quorum engine to
// byte-identical traces, verdicts, fault scripts and mode switches.
TEST(ChaosRun, DegradedGridPinned) {
  ChaosSearchOptions options;
  options.variants = {ChaosVariant::kQuorum, ChaosVariant::kModeSwitching};
  options.seeds = 1;
  options.ops_per_client = 3;
  const std::vector<ChaosRunSpec> grid = chaos_search_grid(options);
  ASSERT_EQ(grid.size(), 14u);
  std::uint64_t h = 14695981039346656037ull;
  int churned = 0;
  int lossy = 0;
  int switched = 0;
  for (const ChaosRunSpec& spec : grid) {
    const ChaosRunResult r = run_chaos(spec);
    fold(h, r.trace_hash);
    fold(h, static_cast<std::uint64_t>(r.verdict));
    fold(h, fnv1a(script_text(r.script)));
    fold(h, static_cast<std::uint64_t>(r.downgrades));
    fold(h, static_cast<std::uint64_t>(r.upgrades));
    if (r.max_concurrent_down > 0) ++churned;
    for (const ScriptedDecision& d : r.script.decisions) {
      if (d.decision.drop) {
        ++lossy;
        break;
      }
    }
    if (r.downgrades > 0) ++switched;
  }
  EXPECT_GT(churned, 0);
  EXPECT_GT(lossy, 0);
  EXPECT_GT(switched, 0);
  EXPECT_EQ(h, 0x2197e5ece04d849aull) << "grid hash 0x" << std::hex << h;
}

// The determinism oracle's detail names the part that diverged: the trace,
// with both hashes, or the fault script, with its first differing decision
// -- never "trace hash X vs X" for a script-only divergence.
TEST(ChaosRun, ReplayDivergenceNamesWhatDiverged) {
  Trace trace;
  trace.clock_offsets = {0, 5};
  trace.end_time = 900;
  FaultScript script;
  script.decisions.push_back({3, FaultDecision{true, 0, 0}});
  script.decisions.push_back({8, FaultDecision{false, 1, 0}});
  EXPECT_EQ(replay_divergence(trace, script, trace, script), "");

  FaultScript other = script;
  other.decisions[1].decision.delay_boost = 40;
  EXPECT_EQ(replay_divergence(trace, script, trace, other),
            "double-run divergence: fault script decision 1 is msg 8 drop 0 "
            "copies 1 boost 0 vs msg 8 drop 0 copies 1 boost 40");
  other.decisions.pop_back();
  EXPECT_EQ(replay_divergence(trace, script, trace, other),
            "double-run divergence: fault script decision 1 is msg 8 drop 0 "
            "copies 1 boost 0 vs none");

  Trace replay = trace;
  replay.end_time = 901;
  std::ostringstream want;
  want << "double-run divergence: trace hash " << std::hex << hash_trace(trace)
       << " vs " << hash_trace(replay);
  EXPECT_EQ(replay_divergence(trace, script, replay, script), want.str());
}

TEST(ChaosSearch, GridIsAPureFunctionOfOptions) {
  ChaosSearchOptions options;
  options.seeds = 2;
  const auto a = chaos_search_grid(options);
  const auto b = chaos_search_grid(options);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].delay_seed, b[i].delay_seed);
    EXPECT_EQ(a[i].workload_seed, b[i].workload_seed);
    EXPECT_EQ(a[i].faults.seed, b[i].faults.seed);
  }
}

TEST(ChaosSearch, RealImplementationSurvivesASlice) {
  // A thin slice of the hunt grid (the full sweep lives in bench_chaos /
  // CI): the real implementation must come out clean.
  ChaosSearchOptions options;
  options.seeds = 2;
  options.jobs = 2;
  const ChaosSearchResult result = run_chaos_search(options);
  EXPECT_GT(result.runs, 0);
  EXPECT_EQ(result.violations, 0) << result.summary();
}

/// The acceptance gate: every planted mutant is found by the seeded search,
/// shrunk to at most 10 decisions, and its bundle replays to the identical
/// verdict and trace hash.
class PlantedMutantTest : public ::testing::TestWithParam<ChaosMutant> {};

TEST_P(PlantedMutantTest, FoundShrunkAndReplayedExactly) {
  ChaosSearchOptions options;
  options.mutant = GetParam();
  options.seeds = 12;  // mirrors bench_chaos --plant
  options.base_seed = 3405691582ull;
  options.jobs = 2;
  const ChaosSearchResult result = run_chaos_search(options);
  ASSERT_GT(result.reproducible, 0)
      << chaos_mutant_name(GetParam()) << " slipped through:\n"
      << result.summary();
  ASSERT_FALSE(result.findings.empty());

  const ChaosFinding& finding = result.findings.front();
  ShrinkStats stats;
  const FaultScript minimal = shrink_fault_script(
      finding.spec, finding.result.script, finding.result.verdict, &stats);
  EXPECT_LE(minimal.size(), 10u) << "script did not shrink far enough";
  EXPECT_LE(minimal.size(), stats.initial_decisions);

  // Bundle round-trip: serialized text parses back and replays to exactly
  // the expected verdict and hash.
  const ChaosRunResult replayed = replay_chaos(finding.spec, minimal);
  EXPECT_EQ(replayed.verdict, finding.result.verdict);
  ReproBundle bundle;
  bundle.spec = finding.spec;
  bundle.script = minimal;
  bundle.expected_verdict = replayed.verdict;
  bundle.expected_hash = replayed.trace_hash;
  std::string error;
  const auto loaded = parse_bundle(bundle_text(bundle), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  const ReplayOutcome outcome = replay_bundle(*loaded);
  EXPECT_TRUE(outcome.verdict_matches)
      << chaos_verdict_name(outcome.result.verdict) << " vs expected "
      << chaos_verdict_name(bundle.expected_verdict);
  EXPECT_TRUE(outcome.hash_matches);
}

INSTANTIATE_TEST_SUITE_P(Mutants, PlantedMutantTest,
                         ::testing::Values(ChaosMutant::kEagerMop,
                                           ChaosMutant::kEagerAop,
                                           ChaosMutant::kNarrowWaits),
                         [](const auto& info) {
                           std::string name = chaos_mutant_name(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ReproBundleIo, RejectsMalformedBundles) {
  EXPECT_FALSE(parse_bundle("not a bundle").has_value());
  std::string error;
  EXPECT_FALSE(parse_bundle("chaosrepro v1\nbogus line\n", &error).has_value());
  EXPECT_FALSE(error.empty());
  // A spec section without its faultscript is incomplete.
  ReproBundle bundle;
  bundle.spec = base_spec();
  std::string text = bundle_text(bundle);
  text = text.substr(0, text.find("faultscript"));
  EXPECT_FALSE(parse_bundle(text, &error).has_value());
}

TEST(ReproBundleIo, RoundTripsAFullSpec) {
  ReproBundle bundle;
  bundle.spec = base_spec();
  bundle.spec.variant = ChaosVariant::kHardened;
  bundle.spec.faults.drop_p = 0.125;
  bundle.spec.faults.links.push_back(LinkFault{0, 1, 0.25, 0.5, 300});
  bundle.spec.faults.stalls.push_back(StallWindow{2, 1000, 1500});
  PartitionWindow w;
  w.from = 2000;
  w.until = 2600;
  w.component_of = {0, 1, 1};
  bundle.spec.faults.partitions.push_back(w);
  bundle.script.decisions.push_back({7, FaultDecision{true, 0, 0}});
  bundle.expected_verdict = ChaosVerdict::kNonLinearizable;
  bundle.expected_hash = 0xfeedface;

  std::string error;
  const auto loaded = parse_bundle(bundle_text(bundle), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->spec.variant, ChaosVariant::kHardened);
  EXPECT_EQ(loaded->spec.faults.drop_p, 0.125);
  ASSERT_EQ(loaded->spec.faults.links.size(), 1u);
  EXPECT_EQ(loaded->spec.faults.links[0].delay_max, 300);
  ASSERT_EQ(loaded->spec.faults.partitions.size(), 1u);
  EXPECT_EQ(loaded->spec.faults.partitions[0].component_of,
            (std::vector<int>{0, 1, 1}));
  ASSERT_EQ(loaded->spec.faults.stalls.size(), 1u);
  EXPECT_EQ(loaded->spec.faults.stalls[0].pid, 2);
  EXPECT_TRUE(loaded->script == bundle.script);
  EXPECT_EQ(loaded->expected_verdict, ChaosVerdict::kNonLinearizable);
  EXPECT_EQ(loaded->expected_hash, 0xfeedfaceu);
}

}  // namespace
}  // namespace linbound
