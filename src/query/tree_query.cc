#include "src/query/tree_query.h"

#include <unordered_map>
#include <vector>

#include "src/cost/trace.h"
#include "src/query/index_fetch.h"
#include "src/query/vectored_fetch.h"

namespace treebench {

std::string_view AlgoName(TreeJoinAlgo algo) {
  switch (algo) {
    case TreeJoinAlgo::kNL:
      return "NL";
    case TreeJoinAlgo::kNOJOIN:
      return "NOJOIN";
    case TreeJoinAlgo::kPHJ:
      return "PHJ";
    case TreeJoinAlgo::kCHJ:
      return "CHJ";
    case TreeJoinAlgo::kHybridPHJ:
      return "HPHJ";
  }
  return "?";
}

TreeQuerySpec DerbyTreeQuery(const DerbyDb& derby, double child_sel_pct,
                             double parent_sel_pct) {
  const DerbyMeta& m = derby.meta;
  TreeQuerySpec spec;
  spec.parent_collection = "Providers";
  spec.child_collection = "Patients";
  spec.parent_key_attr = m.p_upin;
  spec.child_key_attr = m.c_mrn;
  spec.parent_set_attr = m.p_clients;
  spec.child_parent_attr = m.c_pcp;
  spec.parent_proj_attr = m.p_name;
  spec.child_proj_attr = m.c_age;
  spec.parent_hi = derby.UpinCutoff(parent_sel_pct);
  spec.child_hi = derby.MrnCutoff(child_sel_pct);
  return spec;
}

namespace {

constexpr int64_t kLo = INT64_MIN + 1;

// Resolves a possibly-stale (pre-relocation) parent reference for hash
// probes. Only pays the forwarding I/O when the database actually relocated
// objects.
Result<Rid> CanonicalRef(Database* db, const Rid& ref) {
  return db->store().ResolveForward(ref);
}

// Parent-to-child navigation (paper: NL). Only the parent index is usable;
// children are reached through p.clients, randomly placed or not depending
// on the clustering.
Status RunNL(Database* db, const TreeQuerySpec& spec,
             ResultAccounting* result) {
  ObjectStore& store = db->store();
  SimContext& sim = db->sim();
  return ForEachSelected(
      db, spec.parent_collection, spec.parent_key_attr, kLo, spec.parent_hi,
      FetchOrder::kAuto, [&](const Rid& prid) -> Status {
        ObjectHandle* ph = nullptr;
        TB_ASSIGN_OR_RETURN(ph, store.Get(prid));
        std::string pname;
        TB_ASSIGN_OR_RETURN(pname, store.GetString(ph, spec.parent_proj_attr));
        std::vector<Rid> kids;
        TB_ASSIGN_OR_RETURN(kids, store.GetRefSet(ph, spec.parent_set_attr));
        auto kid_body = [&](const Rid& kid) -> Status {
          ObjectHandle* ch = nullptr;
          TB_ASSIGN_OR_RETURN(ch, store.Get(kid));
          if (ObjectAccessObserver* obs = store.access_observer();
              obs != nullptr) {
            obs->OnTraversal(ph->rid, ch->rid);
          }
          int32_t v = 0;
          TB_ASSIGN_OR_RETURN(v, store.GetInt32(ch, spec.child_key_attr));
          sim.ChargeCompare();
          if (v < spec.child_hi) {
            int32_t age = 0;
            TB_ASSIGN_OR_RETURN(age, store.GetInt32(ch, spec.child_proj_attr));
            (void)age;
            // ch->rid is canonical even when the p.clients ref is a stale
            // pre-relocation address.
            result->AddTuple(prid.Packed(), ch->rid.Packed());
          }
          store.Unref(ch);
          return Status::OK();
        };
        TB_RETURN_IF_ERROR(
            DeliverRidsBatched(db, kids, RefSetBatchPolicy(db), kid_body));
        store.Unref(ph);
        return Status::OK();
      });
}

// Child-to-parent navigation (paper: NOJOIN) — "the join is hidden within
// the navigation pattern". The parent predicate may be tested up to
// fanout-many times per parent.
Status RunNOJOIN(Database* db, const TreeQuerySpec& spec,
                 ResultAccounting* result) {
  ObjectStore& store = db->store();
  SimContext& sim = db->sim();
  return ForEachSelected(
      db, spec.child_collection, spec.child_key_attr, kLo, spec.child_hi,
      FetchOrder::kAuto, [&](const Rid& crid) -> Status {
        ObjectHandle* ch = nullptr;
        TB_ASSIGN_OR_RETURN(ch, store.Get(crid));
        Rid pref;
        TB_ASSIGN_OR_RETURN(pref, store.GetRef(ch, spec.child_parent_attr));
        if (!pref.valid()) {
          store.Unref(ch);
          return Status::OK();
        }
        ObjectHandle* ph = nullptr;
        TB_ASSIGN_OR_RETURN(ph, store.Get(pref));
        if (ObjectAccessObserver* obs = store.access_observer();
            obs != nullptr) {
          obs->OnTraversal(ph->rid, ch->rid);
        }
        int32_t upin = 0;
        TB_ASSIGN_OR_RETURN(upin, store.GetInt32(ph, spec.parent_key_attr));
        sim.ChargeCompare();
        if (upin < spec.parent_hi) {
          std::string name;
          TB_ASSIGN_OR_RETURN(name,
                              store.GetString(ph, spec.parent_proj_attr));
          int32_t age = 0;
          TB_ASSIGN_OR_RETURN(age, store.GetInt32(ch, spec.child_proj_attr));
          (void)age;
          result->AddTuple(ph->rid.Packed(), crid.Packed());
        }
        store.Unref(ph);
        store.Unref(ch);
        return Status::OK();
      });
}

// Hash the parents and join (paper: PHJ). Both indexes usable, both
// collections accessed sequentially; the table holds what f(p, pa) needs
// from the parent (its name), ~64 bytes per entry (Figure 10).
Status RunPHJ(Database* db, const TreeQuerySpec& spec,
              ResultAccounting* result) {
  ObjectStore& store = db->store();
  SimContext& sim = db->sim();
  std::unordered_map<uint64_t, std::string> table;

  {
    MetricScope build(&sim, "build(parents)");
    TB_RETURN_IF_ERROR(ForEachSelected(
        db, spec.parent_collection, spec.parent_key_attr, kLo, spec.parent_hi,
        FetchOrder::kAuto, [&](const Rid& prid) -> Status {
          ObjectHandle* ph = nullptr;
          TB_ASSIGN_OR_RETURN(ph, store.Get(prid));
          std::string name;
          TB_ASSIGN_OR_RETURN(name,
                              store.GetString(ph, spec.parent_proj_attr));
          sim.AllocTransient(kHashParentEntryBytes);
          sim.ChargeHashInsert();
          table.emplace(ph->rid.Packed(), std::move(name));
          store.Unref(ph);
          return Status::OK();
        }));
    build.AddRows(table.size());
  }

  MetricScope probe_scope(&sim, "probe(children)");
  uint64_t before = result->count();
  bool resolve_refs = store.has_relocations();
  Status probe = ForEachSelected(
      db, spec.child_collection, spec.child_key_attr, kLo, spec.child_hi,
      FetchOrder::kAuto, [&](const Rid& crid) -> Status {
        ObjectHandle* ch = nullptr;
        TB_ASSIGN_OR_RETURN(ch, store.Get(crid));
        Rid pref;
        TB_ASSIGN_OR_RETURN(pref, store.GetRef(ch, spec.child_parent_attr));
        sim.ChargeHashProbe();
        auto it = pref.valid() ? table.find(pref.Packed()) : table.end();
        if (it == table.end() && pref.valid() && resolve_refs) {
          Rid canonical;
          TB_ASSIGN_OR_RETURN(canonical, CanonicalRef(db, pref));
          it = table.find(canonical.Packed());
        }
        if (it != table.end()) {
          int32_t age = 0;
          TB_ASSIGN_OR_RETURN(age, store.GetInt32(ch, spec.child_proj_attr));
          (void)age;
          result->AddTuple(it->first, crid.Packed());
        }
        store.Unref(ch);
        return Status::OK();
      });
  sim.FreeTransient(table.size() * kHashParentEntryBytes);
  probe_scope.AddRows(result->count() - before);
  return probe;
}

// Hash the children and join (paper: CHJ) — the pointer-based join of
// Shekita & Carey, varied so the parent collection is scanned sequentially.
// An entry is (parent id, {child info...}); potentially fanout-times bigger
// than PHJ's table.
Status RunCHJ(Database* db, const TreeQuerySpec& spec,
              ResultAccounting* result) {
  ObjectStore& store = db->store();
  SimContext& sim = db->sim();
  // Value: (canonical child rid, age) per group member. The rid rides along
  // for result-set capture; the modeled entry stays kHashChildElementBytes.
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, int32_t>>>
      table;
  uint64_t groups = 0, elements = 0;
  bool resolve_refs = store.has_relocations();

  {
    MetricScope build(&sim, "build(children)");
    TB_RETURN_IF_ERROR(ForEachSelected(
        db, spec.child_collection, spec.child_key_attr, kLo, spec.child_hi,
        FetchOrder::kAuto, [&](const Rid& crid) -> Status {
          ObjectHandle* ch = nullptr;
          TB_ASSIGN_OR_RETURN(ch, store.Get(crid));
          Rid pref;
          TB_ASSIGN_OR_RETURN(pref, store.GetRef(ch, spec.child_parent_attr));
          if (pref.valid()) {
            if (resolve_refs) {
              TB_ASSIGN_OR_RETURN(pref, CanonicalRef(db, pref));
            }
            int32_t age = 0;
            TB_ASSIGN_OR_RETURN(age,
                                store.GetInt32(ch, spec.child_proj_attr));
            sim.ChargeHashInsert();
            auto [it, inserted] = table.try_emplace(pref.Packed());
            if (inserted) {
              sim.AllocTransient(kHashParentEntryBytes);
              ++groups;
            }
            sim.AllocTransient(kHashChildElementBytes);
            ++elements;
            it->second.emplace_back(crid.Packed(), age);
          }
          store.Unref(ch);
          return Status::OK();
        }));
    build.AddRows(elements);
  }

  MetricScope probe_scope(&sim, "probe(parents)");
  uint64_t before = result->count();
  Status probe = ForEachSelected(
      db, spec.parent_collection, spec.parent_key_attr, kLo, spec.parent_hi,
      FetchOrder::kAuto, [&](const Rid& prid) -> Status {
        ObjectHandle* ph = nullptr;
        TB_ASSIGN_OR_RETURN(ph, store.Get(prid));
        sim.ChargeHashProbe();
        auto it = table.find(ph->rid.Packed());
        if (it != table.end()) {
          std::string name;
          TB_ASSIGN_OR_RETURN(name,
                              store.GetString(ph, spec.parent_proj_attr));
          for (const auto& [child_key, age] : it->second) {
            (void)age;
            result->AddTuple(it->first, child_key);
          }
        }
        store.Unref(ph);
        return Status::OK();
      });
  sim.FreeTransient(groups * kHashParentEntryBytes +
                    elements * kHashChildElementBytes);
  probe_scope.AddRows(result->count() - before);
  return probe;
}

// Tracks spill bytes and charges whole-page temp-file I/O.
class SpillAccountant {
 public:
  explicit SpillAccountant(SimContext* sim) : sim_(sim) {}
  void Write(uint64_t bytes) {
    write_debt_ += bytes;
    while (write_debt_ >= kPageSize) {
      write_debt_ -= kPageSize;
      sim_->ChargeDiskWrite();
    }
  }
  void Read(uint64_t bytes) {
    read_debt_ += bytes;
    while (read_debt_ >= kPageSize) {
      read_debt_ -= kPageSize;
      sim_->ChargeDiskRead();
    }
  }

 private:
  SimContext* sim_;
  uint64_t write_debt_ = 0;
  uint64_t read_debt_ = 0;
};

// Hybrid hash-parents join: picks a partition count from catalog
// statistics so every in-memory table fits; partition 0 builds directly in
// memory (the "hybrid" part), the rest spill to temporary files and are
// joined partition by partition.
Status RunHybridPHJ(Database* db, const TreeQuerySpec& spec,
                    ResultAccounting* result) {
  ObjectStore& store = db->store();
  SimContext& sim = db->sim();

  // Partition count from the catalog estimate of selected parents. The
  // budget leaves room for what else will occupy RAM by probe time: the
  // handle arena fills up, and the result bag grows — reserve half of
  // what remains after the arena.
  uint64_t budget = sim.FreeRamForTransient();
  uint64_t arena = db->store().handle_arena_bytes();
  budget = budget > arena ? (budget - arena) / 2 : budget / 2;
  double np_est = 0;
  if (const CollectionStats* stats = db->GetStats(spec.parent_collection)) {
    double sel = 1.0;
    auto it = stats->int_attr_range.find(spec.parent_key_attr);
    if (it != stats->int_attr_range.end()) {
      double width = static_cast<double>(it->second.second -
                                         it->second.first) +
                     1.0;
      sel = std::min(
          1.0, std::max(0.0, static_cast<double>(spec.parent_hi -
                                                 it->second.first) /
                                 width));
    }
    np_est = sel * static_cast<double>(stats->count);
  }
  uint32_t partitions = 1;
  if (budget > 0) {
    partitions = static_cast<uint32_t>(
        np_est * kHashParentEntryBytes / static_cast<double>(budget)) + 1;
  }
  if (partitions <= 1) return RunPHJ(db, spec, result);

  SpillAccountant spill(&sim);
  constexpr uint32_t kSpilledParentBytes = kHashParentEntryBytes;
  constexpr uint32_t kSpilledChildBytes = 16;  // (parent ref, age)

  // A spilled child carries its canonical rid for result-set capture; the
  // modeled temp-file record stays kSpilledChildBytes.
  struct SpilledChild {
    uint64_t parent_key;
    uint64_t child_key;
    int32_t age;
  };

  // ---- Partition the parents; partition 0 builds in memory now ----
  std::unordered_map<uint64_t, std::string> table;
  std::vector<std::vector<std::pair<uint64_t, std::string>>> spilled_parents(
      partitions);
  {
    MetricScope part_scope(&sim, "partition(parents)");
    TB_RETURN_IF_ERROR(ForEachSelected(
        db, spec.parent_collection, spec.parent_key_attr, kLo, spec.parent_hi,
        FetchOrder::kAuto, [&](const Rid& prid) -> Status {
          ObjectHandle* ph = nullptr;
          TB_ASSIGN_OR_RETURN(ph, store.Get(prid));
          std::string name;
          TB_ASSIGN_OR_RETURN(name,
                              store.GetString(ph, spec.parent_proj_attr));
          uint64_t key = ph->rid.Packed();
          uint32_t p = static_cast<uint32_t>(key % partitions);
          if (p == 0) {
            sim.AllocTransient(kHashParentEntryBytes);
            sim.ChargeHashInsert();
            table.emplace(key, std::move(name));
          } else {
            spill.Write(kSpilledParentBytes);
            spilled_parents[p].emplace_back(key, std::move(name));
          }
          part_scope.AddRows(1);
          store.Unref(ph);
          return Status::OK();
        }));
  }

  // ---- Partition the children; partition 0 probes immediately ----
  bool resolve_refs = store.has_relocations();
  std::vector<std::vector<SpilledChild>> spilled_children(partitions);
  {
    MetricScope part_scope(&sim, "partition(children)");
    TB_RETURN_IF_ERROR(ForEachSelected(
        db, spec.child_collection, spec.child_key_attr, kLo, spec.child_hi,
        FetchOrder::kAuto, [&](const Rid& crid) -> Status {
          ObjectHandle* ch = nullptr;
          TB_ASSIGN_OR_RETURN(ch, store.Get(crid));
          Rid pref;
          TB_ASSIGN_OR_RETURN(pref, store.GetRef(ch, spec.child_parent_attr));
          if (pref.valid() && resolve_refs) {
            TB_ASSIGN_OR_RETURN(pref, CanonicalRef(db, pref));
          }
          if (pref.valid()) {
            uint64_t key = pref.Packed();
            uint32_t p = static_cast<uint32_t>(key % partitions);
            int32_t age = 0;
            TB_ASSIGN_OR_RETURN(age,
                                store.GetInt32(ch, spec.child_proj_attr));
            if (p == 0) {
              sim.ChargeHashProbe();
              if (table.count(key) != 0) {
                result->AddTuple(key, crid.Packed());
              }
            } else {
              spill.Write(kSpilledChildBytes);
              spilled_children[p].push_back({key, crid.Packed(), age});
            }
            part_scope.AddRows(1);
          }
          store.Unref(ch);
          return Status::OK();
        }));
  }
  sim.FreeTransient(table.size() * kHashParentEntryBytes);
  table.clear();

  // ---- Join the spilled partitions one at a time ----
  MetricScope join_scope(&sim, "join_spilled_partitions");
  uint64_t before = result->count();
  for (uint32_t p = 1; p < partitions; ++p) {
    spill.Read(spilled_parents[p].size() * kSpilledParentBytes);
    std::unordered_map<uint64_t, std::string> part_table;
    for (auto& [key, name] : spilled_parents[p]) {
      sim.AllocTransient(kHashParentEntryBytes);
      sim.ChargeHashInsert();
      part_table.emplace(key, std::move(name));
    }
    spill.Read(spilled_children[p].size() * kSpilledChildBytes);
    for (const SpilledChild& sc : spilled_children[p]) {
      sim.ChargeHashProbe();
      if (part_table.count(sc.parent_key) != 0) {
        result->AddTuple(sc.parent_key, sc.child_key);
      }
    }
    sim.FreeTransient(part_table.size() * kHashParentEntryBytes);
  }
  join_scope.AddRows(result->count() - before);
  return Status::OK();
}

}  // namespace

Result<QueryRunStats> RunTreeQuery(Database* db, const TreeQuerySpec& spec,
                                   TreeJoinAlgo algo) {
  if (spec.cold) TB_RETURN_IF_ERROR(db->BeginMeasuredRun());
  QueryRunStats out;
  {
    // Root span; opened after the cold restart so its delta starts from
    // zeroed counters.
    MetricScope root(&db->sim(), "tree_query(" + std::string(AlgoName(algo)) +
                                     ")");
    ResultAccounting result(&db->sim(), kResultTupleBytes);
    result.CaptureTuples(spec.capture_tuples);
    Status s;
    switch (algo) {
      case TreeJoinAlgo::kNL:
        s = RunNL(db, spec, &result);
        break;
      case TreeJoinAlgo::kNOJOIN:
        s = RunNOJOIN(db, spec, &result);
        break;
      case TreeJoinAlgo::kPHJ:
        s = RunPHJ(db, spec, &result);
        break;
      case TreeJoinAlgo::kCHJ:
        s = RunCHJ(db, spec, &result);
        break;
      case TreeJoinAlgo::kHybridPHJ:
        s = RunHybridPHJ(db, spec, &result);
        break;
    }
    TB_RETURN_IF_ERROR(s);
    out.result_count = result.count();
    root.AddRows(result.count());
  }
  out.seconds = db->sim().elapsed_seconds();
  out.metrics = db->sim().metrics();
  return out;
}

Result<uint64_t> MeasureHashTableBytes(Database* db,
                                       const TreeQuerySpec& spec,
                                       TreeJoinAlgo algo) {
  ObjectStore& store = db->store();
  if (algo == TreeJoinAlgo::kPHJ) {
    uint64_t parents = 0;
    TB_RETURN_IF_ERROR(ForEachSelected(
        db, spec.parent_collection, spec.parent_key_attr, kLo,
        spec.parent_hi, FetchOrder::kAuto, [&](const Rid&) -> Status {
          ++parents;
          return Status::OK();
        }));
    return parents * kHashParentEntryBytes;
  }
  if (algo == TreeJoinAlgo::kCHJ) {
    std::unordered_map<uint64_t, uint64_t> groups;
    uint64_t children = 0;
    TB_RETURN_IF_ERROR(ForEachSelected(
        db, spec.child_collection, spec.child_key_attr, kLo, spec.child_hi,
        FetchOrder::kAuto, [&](const Rid& crid) -> Status {
          ObjectHandle* ch = nullptr;
          TB_ASSIGN_OR_RETURN(ch, store.Get(crid));
          Rid pref;
          TB_ASSIGN_OR_RETURN(pref, store.GetRef(ch, spec.child_parent_attr));
          if (pref.valid()) {
            ++groups[pref.Packed()];
            ++children;
          }
          store.Unref(ch);
          return Status::OK();
        }));
    return groups.size() * kHashParentEntryBytes +
           children * kHashChildElementBytes;
  }
  return Status::InvalidArgument("hash size applies to PHJ/CHJ only");
}

}  // namespace treebench
