#include "core/constrained.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "core/greedy.h"

namespace groupform::core {

using common::Status;
using common::StatusOr;
using common::StrFormat;

namespace {

/// Mean own-rating of `members` for the items of `list` under the
/// problem's missing policy — the affinity used to choose merge and
/// relocation targets.
double MeanAffinity(const FormationProblem& problem,
                    const std::vector<UserId>& members,
                    const grouprec::GroupTopK& list) {
  if (members.empty() || list.empty()) return 0.0;
  const data::RatingStore store = problem.Store();
  const double r_min = store.scale().min;
  double total = 0.0;
  for (UserId u : members) {
    for (const auto& si : list.items) {
      total += store.GetRatingOr(
          u, si.item,
          problem.missing == grouprec::MissingRatingPolicy::kZero ? 0.0
                                                                  : r_min);
    }
  }
  return total / static_cast<double>(members.size() * list.size());
}

/// Slack under which a satisfaction exactly at the floor still counts as
/// satisfying it (floating-point guard, not a semantic tolerance).
constexpr double kFloorSlack = 1e-9;

void SortedInsert(std::vector<UserId>& group, UserId user) {
  group.insert(std::lower_bound(group.begin(), group.end(), user), user);
}

void SortedErase(std::vector<UserId>& group, UserId user) {
  const auto it = std::lower_bound(group.begin(), group.end(), user);
  if (it != group.end() && *it == user) group.erase(it);
}

/// The link structure of a spec over an n-user population: must-link
/// atoms (transitive closure, each user mapped to the smallest user id
/// of its atom) and per-user cannot-link adversaries.
struct LinkContext {
  /// user -> atom representative (== the user itself for singletons).
  std::vector<UserId> atom_of;
  /// representative -> ascending atom members (singletons included).
  std::map<UserId, std::vector<UserId>> atoms;
  /// user -> users it must not share a group with.
  std::vector<std::vector<UserId>> enemies;

  const std::vector<UserId>& AtomMembers(UserId user) const {
    return atoms.at(atom_of[static_cast<std::size_t>(user)]);
  }
};

StatusOr<LinkContext> BuildLinkContext(const ConstraintSpec& spec,
                                       std::int64_t num_users,
                                       int max_group_size) {
  LinkContext context;
  const std::size_t n = static_cast<std::size_t>(num_users);
  std::vector<UserId> parent(n);
  for (std::size_t u = 0; u < n; ++u) {
    parent[u] = static_cast<UserId>(u);
  }
  const auto find = [&parent](UserId user) {
    while (parent[static_cast<std::size_t>(user)] != user) {
      parent[static_cast<std::size_t>(user)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(user)])];
      user = parent[static_cast<std::size_t>(user)];
    }
    return user;
  };
  for (const auto& pair : spec.must_link) {
    const UserId a = find(pair.first);
    const UserId b = find(pair.second);
    if (a == b) continue;
    // The smaller representative wins, so representatives are stable
    // (the smallest user id of the atom) regardless of pair order.
    if (a < b) {
      parent[static_cast<std::size_t>(b)] = a;
    } else {
      parent[static_cast<std::size_t>(a)] = b;
    }
  }
  context.atom_of.resize(n);
  for (std::size_t u = 0; u < n; ++u) {
    const UserId rep = find(static_cast<UserId>(u));
    context.atom_of[u] = rep;
    context.atoms[rep].push_back(static_cast<UserId>(u));
  }
  context.enemies.resize(n);
  for (const auto& pair : spec.cannot_link) {
    if (context.atom_of[static_cast<std::size_t>(pair.first)] ==
        context.atom_of[static_cast<std::size_t>(pair.second)]) {
      return Status::InvalidArgument(StrFormat(
          "must_link makes users %d and %d inseparable but cannot_link "
          "forbids them sharing a group",
          pair.first, pair.second));
    }
    context.enemies[static_cast<std::size_t>(pair.first)].push_back(
        pair.second);
    context.enemies[static_cast<std::size_t>(pair.second)].push_back(
        pair.first);
  }
  for (auto& list : context.enemies) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  if (max_group_size > 0) {
    for (const auto& [rep, members] : context.atoms) {
      if (static_cast<int>(members.size()) > max_group_size) {
        return Status::InvalidArgument(StrFormat(
            "must_link fuses %zu users around user %d, above "
            "max_group_size=%d",
            members.size(), rep, max_group_size));
      }
    }
  }
  return context;
}

/// The mutable partition state of the link-aware pipeline: member lists
/// (possibly with empty tombstone slots) plus the user -> group index.
struct Partition {
  std::vector<std::vector<UserId>> groups;
  std::vector<int> group_of;

  int NonEmptyCount() const {
    int count = 0;
    for (const auto& g : groups) count += g.empty() ? 0 : 1;
    return count;
  }

  void Move(UserId user, int to) {
    const int from = group_of[static_cast<std::size_t>(user)];
    if (from == to) return;
    if (from >= 0) SortedErase(groups[static_cast<std::size_t>(from)], user);
    SortedInsert(groups[static_cast<std::size_t>(to)], user);
    group_of[static_cast<std::size_t>(user)] = to;
  }

  void MoveAtom(const std::vector<UserId>& atom, int to) {
    for (const UserId user : atom) Move(user, to);
  }
};

Partition FromSeed(FormationResult seed, std::int64_t num_users) {
  Partition partition;
  partition.groups.reserve(seed.groups.size());
  for (auto& g : seed.groups) partition.groups.push_back(std::move(g.members));
  partition.group_of.assign(static_cast<std::size_t>(num_users), -1);
  for (std::size_t g = 0; g < partition.groups.size(); ++g) {
    for (const UserId user : partition.groups[g]) {
      partition.group_of[static_cast<std::size_t>(user)] =
          static_cast<int>(g);
    }
  }
  return partition;
}

/// True when every member of `atom` may join group `target` without
/// co-residing with one of its cannot-link adversaries.
bool ConflictFree(const Partition& partition, const LinkContext& links,
                  const std::vector<UserId>& atom, int target) {
  for (const UserId member : atom) {
    for (const UserId enemy :
         links.enemies[static_cast<std::size_t>(member)]) {
      if (partition.group_of[static_cast<std::size_t>(enemy)] == target) {
        return false;
      }
    }
  }
  return true;
}

/// The non-empty group other than `exclude` that `atom` may join — spare
/// capacity under `max_group_size`, no cannot-link adversary inside —
/// whose current recommended list the atom likes most (ties to the lowest
/// index). -1 when no existing group is feasible.
int BestFeasibleGroup(const FormationProblem& problem,
                      const grouprec::GroupScorer& scorer,
                      const Partition& partition, const LinkContext& links,
                      const std::vector<UserId>& atom, int exclude,
                      int max_group_size) {
  double best_affinity = -std::numeric_limits<double>::infinity();
  int best = -1;
  for (std::size_t h = 0; h < partition.groups.size(); ++h) {
    if (static_cast<int>(h) == exclude) continue;
    const auto& group = partition.groups[h];
    if (group.empty()) continue;
    if (max_group_size > 0 &&
        static_cast<int>(group.size() + atom.size()) > max_group_size) {
      continue;
    }
    if (!ConflictFree(partition, links, atom, static_cast<int>(h))) {
      continue;
    }
    const auto list = ComputeGroupList(problem, scorer, group);
    const double affinity = MeanAffinity(problem, atom, list);
    if (affinity > best_affinity) {
      best_affinity = affinity;
      best = static_cast<int>(h);
    }
  }
  return best;
}

/// BestFeasibleGroup, else a fresh slot when the group budget allows (the
/// lowest empty tombstone before growing the vector). -1 when nothing is
/// feasible.
int BestRelocationTarget(const FormationProblem& problem,
                         const grouprec::GroupScorer& scorer,
                         Partition& partition, const LinkContext& links,
                         const std::vector<UserId>& atom, int exclude,
                         int max_group_size) {
  const int best = BestFeasibleGroup(problem, scorer, partition, links, atom,
                                     exclude, max_group_size);
  if (best >= 0) return best;
  if (partition.NonEmptyCount() < problem.max_groups) {
    for (std::size_t h = 0; h < partition.groups.size(); ++h) {
      if (partition.groups[h].empty()) return static_cast<int>(h);
    }
    partition.groups.emplace_back();
    return static_cast<int>(partition.groups.size()) - 1;
  }
  return -1;
}

/// capgreedy's oversize repair. While spare group slots exist, a
/// capacity-sized part is carved off the back of every oversized group
/// into a new group; the overflow left when slots run out moves, last
/// member first, into the first group with free capacity.
Status CarveAndRebalance(const FormationProblem& problem, int cap,
                         Partition& partition) {
  if (cap <= 0) return Status::Ok();
  auto& groups = partition.groups;
  const auto size_cap = static_cast<std::size_t>(cap);
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (groups[g].size() <= size_cap) continue;
      if (static_cast<int>(groups.size()) >= problem.max_groups) break;
      std::vector<UserId> carved(
          groups[g].end() - static_cast<std::ptrdiff_t>(size_cap),
          groups[g].end());
      groups[g].resize(groups[g].size() - size_cap);
      for (const UserId user : carved) {
        partition.group_of[static_cast<std::size_t>(user)] =
            static_cast<int>(groups.size());
      }
      groups.push_back(std::move(carved));
      progress = true;
    }
  }
  // ConstraintSpec::Validate guarantees max_groups * cap seats and the
  // carve loop only stops once every slot is used, so some group always
  // has room; the error below guards that invariant.
  for (std::size_t g = 0; g < groups.size(); ++g) {
    while (groups[g].size() > size_cap) {
      std::size_t target = 0;
      while (target < groups.size() &&
             (target == g || groups[target].size() >= size_cap)) {
        ++target;
      }
      if (target == groups.size()) {
        return Status::InvalidArgument(StrFormat(
            "cannot satisfy max_group_size=%d within %d groups: a "
            "group of %zu users has nowhere to shed overflow",
            cap, problem.max_groups, groups[g].size()));
      }
      partition.Move(groups[g].back(), static_cast<int>(target));
    }
  }
  return Status::Ok();
}

/// pairgreedy / fairgreedy's oversize repair: consolidate atoms, separate
/// cannot-link pairs, shed atoms from oversized groups.
Status RepairLinks(const FormationProblem& problem,
                   const grouprec::GroupScorer& scorer,
                   const ConstraintSpec& spec, const LinkContext& links,
                   Partition& partition) {
  // ---- Consolidate every multi-member atom into one group: the group
  // holding most of its members, ties to the lowest group index. ----
  for (const auto& [rep, members] : links.atoms) {
    if (members.size() < 2) continue;
    std::map<int, int> counts;
    for (const UserId user : members) {
      counts[partition.group_of[static_cast<std::size_t>(user)]]++;
    }
    int target = -1;
    int best_count = 0;
    for (const auto& [group, count] : counts) {
      if (count > best_count) {
        best_count = count;
        target = group;
      }
    }
    partition.MoveAtom(members, target);
  }

  // ---- Separate co-resident cannot-link pairs. One sweep suffices:
  // every placement below is conflict-checked, so no move re-violates a
  // pair handled earlier. Pairs are visited in normalized sorted order
  // for determinism. ----
  std::vector<std::pair<UserId, UserId>> pairs;
  pairs.reserve(spec.cannot_link.size());
  for (auto pair : spec.cannot_link) {
    if (pair.second < pair.first) std::swap(pair.first, pair.second);
    pairs.push_back(pair);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  for (const auto& [a, b] : pairs) {
    const int group_a = partition.group_of[static_cast<std::size_t>(a)];
    const int group_b = partition.group_of[static_cast<std::size_t>(b)];
    if (group_a != group_b) continue;
    // Move the smaller atom (ties: the atom of the higher user id), so
    // the disruption to the seed partition is minimal.
    const auto& atom_a = links.AtomMembers(a);
    const auto& atom_b = links.AtomMembers(b);
    const auto& atom = atom_a.size() < atom_b.size() ? atom_a : atom_b;
    const int target = BestRelocationTarget(
        problem, scorer, partition, links, atom, group_a,
        spec.max_group_size);
    if (target < 0) {
      return Status::InvalidArgument(StrFormat(
          "cannot separate cannot_link pair (%d, %d): no conflict-free "
          "group with capacity under max_group_size=%d and %d groups",
          a, b, spec.max_group_size, problem.max_groups));
    }
    partition.MoveAtom(atom, target);
  }

  // ---- Oversized groups shed atoms into feasible groups (capacity +
  // conflicts respected, so no link is re-violated). ----
  if (spec.max_group_size > 0) {
    const int cap = spec.max_group_size;
    for (std::size_t g = 0; g < partition.groups.size(); ++g) {
      while (static_cast<int>(partition.groups[g].size()) > cap) {
        // Candidate atoms, highest representative first (the back of the
        // group moves, keeping the seed's head stable).
        std::vector<UserId> reps;
        for (const UserId user : partition.groups[g]) {
          const UserId rep = links.atom_of[static_cast<std::size_t>(user)];
          if (reps.empty() || reps.back() != rep) reps.push_back(rep);
        }
        std::sort(reps.begin(), reps.end());
        reps.erase(std::unique(reps.begin(), reps.end()), reps.end());
        bool moved = false;
        for (auto it = reps.rbegin(); it != reps.rend(); ++it) {
          const auto& atom = links.atoms.at(*it);
          const int target = BestRelocationTarget(
              problem, scorer, partition, links, atom,
              static_cast<int>(g), cap);
          if (target >= 0) {
            partition.MoveAtom(atom, target);
            moved = true;
            break;
          }
        }
        if (!moved) {
          return Status::InvalidArgument(StrFormat(
              "cannot satisfy max_group_size=%d within %d groups: a "
              "group of %zu users has no relocatable atom",
              cap, problem.max_groups, partition.groups[g].size()));
        }
      }
    }
  }
  return Status::Ok();
}

/// The family's one undersize merge: the smallest undersized non-empty
/// group (ties to the lowest index) merges whole into its
/// BestFeasibleGroup, until every formed group reaches min_group_size.
Status MergeUndersized(const FormationProblem& problem,
                       const grouprec::GroupScorer& scorer,
                       const ConstraintSpec& spec, const LinkContext& links,
                       Partition& partition) {
  while (true) {
    int smallest = -1;
    for (std::size_t g = 0; g < partition.groups.size(); ++g) {
      const auto& group = partition.groups[g];
      if (group.empty() ||
          static_cast<int>(group.size()) >= spec.min_group_size) {
        continue;
      }
      if (smallest < 0 ||
          group.size() <
              partition.groups[static_cast<std::size_t>(smallest)].size()) {
        smallest = static_cast<int>(g);
      }
    }
    if (smallest < 0) return Status::Ok();
    const std::vector<UserId> members =
        partition.groups[static_cast<std::size_t>(smallest)];
    const int best = BestFeasibleGroup(problem, scorer, partition, links,
                                       members, smallest,
                                       spec.max_group_size);
    if (best < 0) {
      return Status::InvalidArgument(StrFormat(
          "cannot reach min_group_size=%d under max_group_size=%d: a "
          "group of %zu users has no feasible merge target",
          spec.min_group_size, spec.max_group_size, members.size()));
    }
    partition.MoveAtom(members, best);
  }
}

std::string ConstrainedLabel(const FormationProblem& problem,
                             const ConstraintSpec& spec) {
  std::string label = GreedyFormer::AlgorithmName(problem);
  if (spec.HasSizeBounds()) {
    label += StrFormat(
        " [size %d..%s]", spec.min_group_size,
        spec.max_group_size > 0
            ? StrFormat("%d", spec.max_group_size).c_str()
            : "inf");
  }
  if (spec.HasLinks()) {
    label += StrFormat(" [links ml=%zu cl=%zu]", spec.must_link.size(),
                       spec.cannot_link.size());
  }
  if (spec.has_min_user_sat) {
    label += StrFormat(" [floor %g]", spec.min_user_sat);
  }
  return label;
}

/// fairgreedy's one deterministic fairness pass (DESIGN.md §17.3): visit
/// atoms in ascending representative order, relocate each whose members
/// sit below the floor into the feasible group its members like most —
/// strictly better than where they are — and return how many users remain
/// below the floor afterwards. Lists are cached per group and invalidated
/// on every move.
int RepairFloor(const FormationProblem& problem,
                const grouprec::GroupScorer& scorer,
                const ConstraintSpec& spec, const LinkContext& links,
                Partition& partition) {
  std::vector<grouprec::GroupTopK> lists(partition.groups.size());
  std::vector<bool> fresh(partition.groups.size(), false);
  const auto list_of = [&](int g) -> const grouprec::GroupTopK& {
    const auto index = static_cast<std::size_t>(g);
    if (!fresh[index]) {
      lists[index] =
          ComputeGroupList(problem, scorer, partition.groups[index]);
      fresh[index] = true;
    }
    return lists[index];
  };
  const auto invalidate = [&](int g) {
    const auto index = static_cast<std::size_t>(g);
    if (index >= fresh.size()) {
      fresh.resize(index + 1, false);
      lists.resize(index + 1);
    }
    fresh[index] = false;
  };
  for (const auto& [rep, atom] : links.atoms) {
    const int current =
        partition.group_of[static_cast<std::size_t>(rep)];
    const double here = MeanAffinity(problem, atom, list_of(current));
    // Relocation is for atoms below the floor; an atom whose mean
    // already clears it stays put.
    if (here >= spec.min_user_sat - kFloorSlack) continue;
    const auto& source = partition.groups[static_cast<std::size_t>(
        current)];
    // The source must stay a legal group (or empty entirely).
    const bool source_ok =
        source.size() == atom.size() ||
        static_cast<int>(source.size() - atom.size()) >=
            spec.min_group_size;
    if (!source_ok) continue;
    double best_value = here;
    int best = -1;
    for (std::size_t h = 0; h < partition.groups.size(); ++h) {
      if (static_cast<int>(h) == current) continue;
      const auto& group = partition.groups[h];
      if (group.empty()) continue;
      if (spec.max_group_size > 0 &&
          static_cast<int>(group.size() + atom.size()) >
              spec.max_group_size) {
        continue;
      }
      if (!ConflictFree(partition, links, atom,
                        static_cast<int>(h))) {
        continue;
      }
      const double value =
          MeanAffinity(problem, atom, list_of(static_cast<int>(h)));
      if (value > best_value + kFloorSlack) {
        best_value = value;
        best = static_cast<int>(h);
      }
    }
    if (best >= 0) {
      partition.MoveAtom(atom, best);
      invalidate(current);
      invalidate(best);
    }
  }
  // Count what remains below the floor — infeasibility is reported,
  // never silent.
  int floor_violations = 0;
  for (std::size_t g = 0; g < partition.groups.size(); ++g) {
    const auto& group = partition.groups[g];
    if (group.empty()) continue;
    const auto& list = list_of(static_cast<int>(g));
    for (const UserId user : group) {
      if (UserSatisfaction(problem, user, list) <
          spec.min_user_sat - kFloorSlack) {
        ++floor_violations;
      }
    }
  }
  return floor_violations;
}

}  // namespace

double UserSatisfaction(const FormationProblem& problem, UserId user,
                        const grouprec::GroupTopK& list) {
  return MeanAffinity(problem, {user}, list);
}

Status CheckPartition(const FormationProblem& problem,
                      const ConstraintSpec& spec,
                      const FormationResult& result,
                      int* floor_violations) {
  if (floor_violations != nullptr) *floor_violations = 0;
  GF_RETURN_IF_ERROR(ValidatePartition(problem, result));
  GF_RETURN_IF_ERROR(
      spec.ValidateForPopulation(problem.Store().num_users()));
  for (const auto& group : result.groups) {
    const int size = static_cast<int>(group.members.size());
    if (size < spec.min_group_size) {
      return Status::FailedPrecondition(StrFormat(
          "group of %d members is below min_group_size=%d", size,
          spec.min_group_size));
    }
    if (spec.max_group_size > 0 && size > spec.max_group_size) {
      return Status::FailedPrecondition(StrFormat(
          "group of %d members is above max_group_size=%d", size,
          spec.max_group_size));
    }
  }
  std::map<UserId, int> group_of;
  for (std::size_t g = 0; g < result.groups.size(); ++g) {
    for (const UserId user : result.groups[g].members) {
      group_of[user] = static_cast<int>(g);
    }
  }
  for (const auto& [a, b] : spec.must_link) {
    if (group_of.at(a) != group_of.at(b)) {
      return Status::FailedPrecondition(StrFormat(
          "must_link pair (%d, %d) is split across groups %d and %d", a,
          b, group_of.at(a), group_of.at(b)));
    }
  }
  for (const auto& [a, b] : spec.cannot_link) {
    if (group_of.at(a) == group_of.at(b)) {
      return Status::FailedPrecondition(StrFormat(
          "cannot_link pair (%d, %d) shares group %d", a, b,
          group_of.at(a)));
    }
  }
  if (spec.has_min_user_sat && floor_violations != nullptr) {
    int below = 0;
    for (const auto& group : result.groups) {
      for (const UserId user : group.members) {
        if (UserSatisfaction(problem, user, group.recommendation) <
            spec.min_user_sat - kFloorSlack) {
          ++below;
        }
      }
    }
    *floor_violations = below;
  }
  return Status::Ok();
}

const char* ConstrainedGreedySolver::RegistryName(Member member) {
  constexpr const char* kNames[] = {"capgreedy", "pairgreedy", "fairgreedy"};
  return kNames[static_cast<int>(member)];
}

StatusOr<FormationResult> ConstrainedGreedySolver::Solve(
    std::uint64_t) const {
  const FormationProblem& problem = problem_;
  const ConstraintSpec& spec = problem.constraints;
  if (member_ == Member::kCap && (spec.HasLinks() || spec.has_min_user_sat)) {
    return Status::InvalidArgument(
        "capgreedy supports size bounds only; use pairgreedy for link "
        "pairs and fairgreedy for a fairness floor");
  }
  if (member_ == Member::kPair && spec.has_min_user_sat) {
    return Status::InvalidArgument(
        "pairgreedy does not support min_user_sat; use fairgreedy for a "
        "fairness floor");
  }
  GF_RETURN_IF_ERROR(problem.Validate());
  const std::int64_t num_users = problem.Store().num_users();
  GF_RETURN_IF_ERROR(spec.Validate(num_users, problem.max_groups));
  GF_ASSIGN_OR_RETURN(
      LinkContext links,
      BuildLinkContext(spec, num_users, spec.max_group_size));
  GF_ASSIGN_OR_RETURN(FormationResult seed, RunGreedy(problem));
  Partition partition = FromSeed(std::move(seed), num_users);
  const grouprec::GroupScorer scorer = problem.MakeScorer();
  if (member_ == Member::kCap) {
    GF_RETURN_IF_ERROR(
        CarveAndRebalance(problem, spec.max_group_size, partition));
  } else {
    GF_RETURN_IF_ERROR(
        RepairLinks(problem, scorer, spec, links, partition));
  }
  GF_RETURN_IF_ERROR(
      MergeUndersized(problem, scorer, spec, links, partition));
  const int floor_violations =
      spec.has_min_user_sat
          ? RepairFloor(problem, scorer, spec, links, partition)
          : 0;
  FormationResult result = PackageGroups(problem, scorer, partition.groups);
  result.algorithm = ConstrainedLabel(problem, spec);
  result.floor_violations = floor_violations;
  return result;
}

}  // namespace groupform::core
