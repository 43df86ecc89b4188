#include "core/stellar.h"

#include <optional>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/nonseed_extension.h"
#include "core/pairwise_masks.h"
#include "core/seed_lattice.h"
#include "dataset/duplicate_binding.h"
#include "dataset/ranked_view.h"

namespace skycube {

namespace {

// Remaps distinct-row member ids back to original object ids.
void ExpandBoundMembers(const DuplicateBinding& binding,
                        SkylineGroupSet* groups) {
  for (SkylineGroup& group : *groups) {
    group.members = binding.Expand(group.members);
  }
}

}  // namespace

SkylineGroupSet ComputeStellar(const Dataset& data,
                               const StellarOptions& options,
                               StellarStats* stats) {
  StellarStats local_stats;
  local_stats.num_objects = data.num_objects();
  WallTimer total_timer;
  WallTimer phase_timer;

  // Paper §5 preprocessing: bind identical objects together.
  std::optional<DuplicateBinding> binding;
  const Dataset* working = &data;
  if (options.bind_duplicates) {
    binding.emplace(BindDuplicates(data));
    working = &binding->distinct;
  }
  local_stats.num_unique_objects = working->num_objects();

  // One columnar copy of the working rows serves the skyline step, the
  // pairwise matrices and the non-seed extension.
  phase_timer.Reset();
  const RankedView view(*working);
  local_stats.seconds_ranked_view = phase_timer.ElapsedSeconds();

  // Step 1: full-space skyline — the seed objects F(S).
  phase_timer.Reset();
  std::vector<ObjectId> seeds =
      ComputeSkyline(view, working->full_mask(), options.skyline_algorithm);
  local_stats.num_seeds = seeds.size();
  local_stats.seconds_full_skyline = phase_timer.ElapsedSeconds();

  // Byproduct: dominance/coincidence matrices over F(S).
  phase_timer.Reset();
  const bool materialize =
      options.matrix_mode == StellarOptions::MatrixMode::kMaterialize ||
      (options.matrix_mode == StellarOptions::MatrixMode::kAuto &&
       seeds.size() <= options.materialize_max_seeds);
  PairwiseMasks masks(view, seeds, working->full_mask(), materialize,
                      options.num_threads);
  local_stats.seconds_matrices = phase_timer.ElapsedSeconds();

  // Steps 2–4: seed skyline groups and their decisive subspaces.
  phase_timer.Reset();
  SeedLatticeStats lattice_stats;
  std::vector<SeedSkylineGroup> seed_groups =
      BuildSeedSkylineGroups(masks, &lattice_stats, options.num_threads);
  local_stats.num_maximal_cgroups = lattice_stats.num_maximal_cgroups;
  local_stats.num_seed_skyline_groups = lattice_stats.num_seed_skyline_groups;
  local_stats.seconds_seed_groups = phase_timer.ElapsedSeconds();

  // Step 5: accommodate non-seed objects.
  phase_timer.Reset();
  SkylineGroupSet groups =
      ExtendWithNonSeeds(view, masks.objects(), seed_groups, nullptr,
                         options.num_threads);
  local_stats.seconds_nonseed = phase_timer.ElapsedSeconds();

  if (binding.has_value()) ExpandBoundMembers(*binding, &groups);
  NormalizeGroups(&groups);
  local_stats.num_groups = groups.size();
  local_stats.seconds_total = total_timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local_stats;
  return groups;
}

}  // namespace skycube
