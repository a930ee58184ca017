#include "re/engine.hpp"

#include <chrono>
#include <map>
#include <span>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "obs/run_context.hpp"
#include "re/kernel.hpp"

namespace lcl {

namespace {

/// Cheap structural signature for fixed-point detection: label count and
/// per-degree configuration counts. A matching signature alone is only a
/// *likely* fixed point - it is confirmed by an exact (up to output-label
/// renaming) constraint comparison before being reported.
std::vector<std::size_t> signature(const NodeEdgeCheckableLcl& p) {
  std::vector<std::size_t> sig{p.output_alphabet().size(),
                               p.edge_configs().size()};
  for (int d = 1; d <= p.max_degree(); ++d) {
    sig.push_back(p.node_configs(d).size());
  }
  return sig;
}

/// The synthesized constant-round algorithm: evaluates the 0-round witness
/// at level k and lifts it down level by level via Lemma 3.9, simulating
/// the lift at every node within the radius-k view.
class SynthesizedAlgorithm final : public BallAlgorithm {
 public:
  /// `base` is the problem the levels actually lift down to (the engine's
  /// effective, possibly pre-flight-pruned, base); `new_to_old` translates its
  /// labels back to the original problem's.
  SynthesizedAlgorithm(const NodeEdgeCheckableLcl& base,
                       std::span<const SequenceLevel> levels,
                       ZeroRoundAlgorithm witness,
                       const std::vector<Label>& new_to_old)
      : base_(base),
        levels_(levels),
        witness_(std::move(witness)),
        new_to_old_(new_to_old) {}

  int radius(std::size_t advertised_n) const override {
    (void)advertised_n;
    return static_cast<int>(levels_.size());
  }

  std::vector<Label> outputs(const LocalView& view) const override {
    std::map<std::pair<std::size_t, NodeId>, std::vector<Label>> memo;
    std::vector<Label> result = labels_at(view, 0, view.center(), memo);
    for (auto& l : result) l = new_to_old_[l];
    return result;
  }

 private:
  /// Output labels of problem `f^level(pi)` at node `u`, one per port.
  std::vector<Label> labels_at(
      const LocalView& view, std::size_t level, NodeId u,
      std::map<std::pair<std::size_t, NodeId>, std::vector<Label>>& memo)
      const {
    const auto key = std::make_pair(level, u);
    if (auto it = memo.find(key); it != memo.end()) return it->second;

    const int degree = view.degree(u);
    std::vector<Label> result;
    if (level == levels_.size()) {
      // Top of the sequence: apply the 0-round witness to u's input tuple.
      std::vector<Label> inputs(static_cast<std::size_t>(degree));
      for (int p = 0; p < degree; ++p) {
        inputs[static_cast<std::size_t>(p)] = view.input(u, p);
      }
      result = witness_.apply(inputs);
    } else {
      // Lemma 3.9 at this level: compute f^(level+1) labels at u and its
      // neighbors, then the two-step choice.
      const auto& lvl = levels_[level];
      const auto mine = labels_at(view, level + 1, u, memo);
      // Step 1: per edge, both endpoints pick the same psi-label pair; the
      // smaller-ID endpoint plays the role of "first".
      const auto& psi = lvl.psi.problem;
      const auto& meaning = lvl.next.meaning;
      std::vector<Label> psi_labels(static_cast<std::size_t>(degree));
      for (int p = 0; p < degree; ++p) {
        const NodeId w = view.neighbor(u, p);
        const auto theirs = labels_at(view, level + 1, w, memo);
        const int q = view.twin_port(u, p);
        const Label xu = mine[static_cast<std::size_t>(p)];
        const Label xw = theirs[static_cast<std::size_t>(q)];
        psi_labels[static_cast<std::size_t>(p)] =
            (view.id(u) < view.id(w))
                ? choose_edge_pair(psi, meaning, xu, xw).first
                : choose_edge_pair(psi, meaning, xw, xu).second;
      }
      // Step 2: per node selection satisfying the lower-level node
      // constraint.
      const NodeEdgeCheckableLcl& lower =
          level == 0 ? base_ : levels_[level - 1].next.problem;
      result = choose_node_labels(lower, lvl.psi.meaning, psi_labels);
    }
    memo.emplace(key, result);
    return result;
  }

  const NodeEdgeCheckableLcl& base_;
  std::span<const SequenceLevel> levels_;
  ZeroRoundAlgorithm witness_;
  const std::vector<Label>& new_to_old_;
};

}  // namespace

SequenceLevel speedup_step(const NodeEdgeCheckableLcl& pi,
                           const ReLimits& limits, bool reduce) {
  ReStep psi = re_kernel::apply(pi, limits, /*exists_node=*/true, reduce);
  ReStep next =
      re_kernel::apply(psi.problem, limits, /*exists_node=*/false, reduce);
  return SequenceLevel{std::move(psi), std::move(next)};
}

SpeedupEngine::SpeedupEngine(NodeEdgeCheckableLcl base)
    : base_(std::move(base)), preflight_(preflight_trim(base_)) {
  LCL_OBS_COUNTER_ADD("re.preflight_dead_labels", preflight_.dead_labels);
}

const NodeEdgeCheckableLcl& SpeedupEngine::problem_at(std::size_t i) const {
  if (i == 0) return base_;
  if (i <= levels_.size()) return levels_[i - 1].next.problem;
  throw std::out_of_range("SpeedupEngine::problem_at: step not computed");
}

bool SpeedupEngine::zero_round(const NodeEdgeCheckableLcl& problem, int step,
                               const Options& options, Memo* memo) {
  bool computed = false;
  const auto compute = [&]() {
    computed = true;
    witness_ = find_zero_round_algorithm(problem, options.degrees);
    if (witness_) witness_step_ = step;
    return witness_.has_value();
  };
  const bool solvable =
      memo == nullptr ? compute()
                      : memo->zero_round(problem, options.degrees, compute);
  if (!computed) memo_served_ = true;
  return solvable;
}

SpeedupEngine::Outcome SpeedupEngine::run(const Options& options,
                                          Memo* memo) {
  LCL_OBS_SPAN(run_span, "re/run", "re");
  LCL_OBS_COUNTER_ADD("re.runs", 1);
  Outcome outcome;
  if (options.limits != limits_ || options.reduce != reduce_) {
    levels_.clear();
    held_.clear();
    failed_.reset();
    limits_ = options.limits;
    reduce_ = options.reduce;
  }
  witness_.reset();
  witness_step_ = -1;
  memo_served_ = false;

  // The constructor's pre-flight: an L020 verdict short-circuits the run;
  // dead-label pruning shrinks the alphabet `R`'s power set is built over.
  // Both are sound: dead labels occur in no correct solution on any
  // instance, so the pruned problem has the same solvability, round
  // complexity, and 0-round verdicts as the original.
  outcome.preflight_dead_labels = preflight_.dead_labels;
  if (preflight_.trivially_unsolvable) {
    outcome.detected_unsolvable = true;
    outcome.blowup_message =
        "preflight lint (L020): the pruned constraint set is empty";
    LCL_OBS_EVENT1("re/preflight_unsolvable", "re", "dead_labels",
                   preflight_.dead_labels);
    return outcome;
  }

  if (zero_round(effective_base(), 0, options, memo)) {
    outcome.zero_round_step = 0;
    return outcome;
  }

  auto previous_signature = signature(effective_base());
  for (int step = 0; step < options.max_steps; ++step) {
    const auto start = std::chrono::steady_clock::now();
    const auto i = static_cast<std::size_t>(step);
    if (i == levels_.size() && !failed_) {
      LCL_OBS_SPAN(step_span, "re/step", "re");
      LCL_OBS_SPAN_ARG(step_span, "index", step);
      StepStats stats;
      stats.index = step;
      bool computed = false;
      try {
        const NodeEdgeCheckableLcl& current =
            levels_.empty() ? effective_base() : levels_.back().next.problem;
        SequenceLevel level;
        const auto compute = [&]() {
          computed = true;
          level = speedup_step(current, options.limits, options.reduce);
          stats.labels_psi = level.psi.problem.output_alphabet().size();
        };
        if (memo == nullptr) {
          compute();
        } else {
          Memo::Step served = memo->step(current, options, [&]() {
            compute();
            return Memo::Step{level.next.problem, stats.labels_psi};
          });
          if (!computed) {
            // The constraints computing the step gives, under the name it
            // gives; no lifting data.
            stats.labels_psi = served.labels_psi;
            level.next.problem =
                std::move(served.next)
                    .renamed("Rbar(R(" + current.name() + "))");
          }
        }
        stats.labels_next = level.next.problem.output_alphabet().size();
        stats.node_configs = level.next.problem.total_node_configs();
        stats.edge_configs = level.next.problem.edge_configs().size();
        levels_.push_back(std::move(level));
        held_.push_back(Held{stats, !computed});
      } catch (const ReBlowupError& e) {
        failed_ = Failure{false, e.what()};
      } catch (const std::runtime_error& e) {
        // reduce() throws when no output label survives trimming: the
        // problem admits no correct solution on any graph with an edge. Not
        // after the pre-flight, since each singleton label of R(pi) and of
        // Rbar(psi) keeps the node configurations, edge partners and inputs
        // of the label it wraps; the catch is error handling.
        failed_ = Failure{true, e.what()};
      }
      if (!failed_) {
        LCL_OBS_COUNTER_ADD("re.steps", 1);
        if (auto* run = obs::RunContext::current(); run != nullptr) {
          run->bump("engine_steps");
        }
        LCL_OBS_HISTOGRAM_RECORD("re.labels_per_step", stats.labels_next);
        LCL_OBS_HISTOGRAM_RECORD("re.node_configs_per_step",
                                 stats.node_configs);
        LCL_OBS_GAUGE_SET("re.current_labels", stats.labels_next);
        LCL_OBS_SPAN_ARG(step_span, "labels", stats.labels_next);
        LCL_OBS_SPAN_ARG(step_span, "node_configs", stats.node_configs);
        LCL_OBS_SPAN_ARG(step_span, "memo", computed ? 0 : 1);
      }
    }
    if (i == levels_.size()) {
      // The step failed, in this run or in an earlier one.
      (failed_->unsolvable ? outcome.detected_unsolvable
                           : outcome.budget_exhausted) = true;
      outcome.blowup_message = failed_->message;
      return outcome;
    }
    StepStats stats = held_[i].stats;
    if (held_[i].served) memo_served_ = true;

    const NodeEdgeCheckableLcl& latest = levels_[i].next.problem;
    if (zero_round(latest, step + 1, options, memo)) {
      stats.zero_round_solvable = true;
      outcome.zero_round_step = step + 1;
    }
    stats.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    outcome.steps.push_back(stats);
    if (outcome.zero_round_step >= 0) return outcome;

    const auto sig = signature(latest);
    if (sig == previous_signature) {
      // The signature can collide for genuinely different problems; only an
      // exact match (up to relabeling outputs) certifies the fixed point.
      const NodeEdgeCheckableLcl& prior =
          i == 0 ? effective_base() : levels_[i - 1].next.problem;
      if (same_constraints(latest, prior) ||
          isomorphic_constraints(latest, prior)) {
        outcome.fixed_point = true;
        LCL_OBS_EVENT1("re/fixed_point", "re", "step", step);
        return outcome;
      }
    }
    previous_signature = sig;
  }
  return outcome;
}

std::unique_ptr<BallAlgorithm> SpeedupEngine::synthesize() const {
  LCL_OBS_SPAN(span, "re/synthesize", "re");
  if (memo_served_) {
    throw std::logic_error(
        "SpeedupEngine::synthesize: run() was served by a memo, which keeps "
        "no lifting data; run without one to synthesize");
  }
  if (!witness_) {
    throw std::logic_error(
        "SpeedupEngine::synthesize: no 0-round witness found; run() must "
        "succeed first");
  }
  // The witness lives at level `witness_step_`; the synthesized algorithm
  // lifts through exactly the levels below it.
  return std::make_unique<SynthesizedAlgorithm>(
      preflight_.problem,
      std::span<const SequenceLevel>(levels_).first(
          static_cast<std::size_t>(witness_step_)),
      *witness_, preflight_.new_to_old);
}

}  // namespace lcl
