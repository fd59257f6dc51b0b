#include "transport/fault.hpp"

namespace adets::transport {

namespace {

/// Uniform double in [0, 1) from one SplitMix64 draw.
double unit_draw(std::uint64_t& state) {
  return static_cast<double>(common::splitmix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

FaultDecision decide_fault(const FaultPlan& plan, common::NodeId src,
                           common::NodeId dst, std::uint64_t counter) {
  FaultDecision decision;
  decision.link_counter = counter;
  const LinkFaults& faults = plan.default_faults;
  if (!faults.active()) return decision;

  // One private SplitMix64 stream per (plan, link, message): verdicts
  // never depend on traffic on other links or on draw consumption by
  // earlier messages.
  std::uint64_t state = plan.seed;
  state = common::splitmix64(state) ^ (static_cast<std::uint64_t>(src.value()) << 32 |
                                       static_cast<std::uint64_t>(dst.value()));
  state = common::splitmix64(state) ^ counter;

  // Fixed draw order keeps the stream aligned whatever the probabilities.
  const double drop = unit_draw(state);
  const double duplicate = unit_draw(state);
  const double delay_fraction = unit_draw(state);
  const double reorder = unit_draw(state);

  decision.dropped = drop < faults.drop_probability;
  decision.duplicated = duplicate < faults.duplicate_probability;
  decision.reordered = reorder < faults.reorder_probability;
  if (faults.extra_delay_max > faults.extra_delay_min) {
    const auto span =
        static_cast<double>((faults.extra_delay_max - faults.extra_delay_min).count());
    decision.extra_delay_ns =
        faults.extra_delay_min.count() +
        static_cast<std::int64_t>(delay_fraction * span);
  } else {
    decision.extra_delay_ns = faults.extra_delay_min.count();
  }
  return decision;
}

std::uint64_t fault_trace_digest(const FaultTrace& trace) {
  std::uint64_t digest = 0x2545f4914f6cdd1dULL;
  const auto mix = [&digest](std::uint64_t value) {
    digest ^= value + 0x9e3779b97f4a7c15ULL + (digest << 6) + (digest >> 2);
  };
  for (const auto& [link, decisions] : trace) {
    mix(link.first);
    mix(link.second);
    for (const auto& d : decisions) {
      mix(d.link_counter);
      mix((d.dropped ? 1ULL : 0ULL) | (d.duplicated ? 2ULL : 0ULL) |
          (d.reordered ? 4ULL : 0ULL));
      mix(static_cast<std::uint64_t>(d.extra_delay_ns));
    }
  }
  return digest;
}

}  // namespace adets::transport
