#include "src/recluster/reorganizer.h"

#include <string>
#include <unordered_set>
#include <utility>

#include "src/objects/value.h"

namespace treebench {

Reorganizer::Reorganizer(Database* db, TxnManager* txns, HeatTracker* heat,
                         uint32_t client_id, uint32_t page_budget,
                         double min_heat, double min_span)
    : ctx(db->cache().config().client_pages()),
      db_(db),
      txns_(txns),
      heat_(heat),
      client_id_(client_id),
      page_budget_(page_budget),
      min_heat_(min_heat),
      min_span_(min_span) {}

Status Reorganizer::BuildPositions() {
  positions_.clear();
  for (PersistentCollection* col : db_->AllCollections()) {
    auto it = col->Scan();
    for (; it.Valid(); it.Next()) {
      positions_[it.rid().Packed()] = ExtentPos{col, it.index()};
    }
    TB_RETURN_IF_ERROR(it.status());
  }
  positions_built_ = true;
  return Status::OK();
}

Result<Reorganizer::ExtentPos> Reorganizer::FindPosition(const Rid& rid) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto it = positions_.find(rid.Packed());
    if (it != positions_.end()) {
      Rid current;
      TB_ASSIGN_OR_RETURN(current, it->second.col->At(it->second.pos));
      if (current == rid) return it->second;
    }
    // Stale map (a structural change moved extent slots): rescan once.
    if (attempt == 0) TB_RETURN_IF_ERROR(BuildPositions());
  }
  return Status::Internal("recluster: object missing from every extent");
}

uint16_t Reorganizer::EnsureTargetFile(bool* created) {
  *created = false;
  if (target_file_ != 0xFFFF) return target_file_;
  target_file_ =
      db_->CreateFile("__recluster#" + std::to_string(++target_gen_));
  *created = true;
  return target_file_;
}

Status Reorganizer::MigrateGroup(const Rid& parent, uint32_t* budget,
                                 bool* aborted) {
  *aborted = false;
  ObjectStore& store = db_->store();
  SimContext& sim = db_->sim();

  // The tracked parent may be stale (deleted, or already migrated under a
  // forwarding-free delete): anything unreadable is simply forgotten.
  Result<Rid> canon = store.ResolveForward(parent);
  if (!canon.ok()) {
    heat_->ForgetParent(parent);
    return Status::OK();
  }
  const Rid prid = *canon;

  Result<ObjectHandle*> ph = store.Get(prid);
  if (!ph.ok()) {
    heat_->ForgetParent(parent);
    return Status::OK();
  }
  const uint16_t parent_class = (*ph)->class_id;
  ObjectData pdata;
  TB_ASSIGN_OR_RETURN(pdata, store.Materialize(*ph));
  store.Unref(*ph);

  const ClassDef& pcls = db_->schema().GetClass(parent_class);
  int set_attr = -1;
  for (size_t a = 0; a < pcls.attr_count(); ++a) {
    if (pcls.attr(a).type == AttrType::kRefSet) {
      set_attr = static_cast<int>(a);
      break;
    }
  }
  if (set_attr < 0) {  // not a composition parent after all
    heat_->ForgetParent(parent);
    return Status::OK();
  }

  std::vector<Rid> kids;
  for (const Rid& kid : AsRefSet(pdata[static_cast<size_t>(set_attr)])) {
    Result<Rid> kcanon = store.ResolveForward(kid);
    if (!kcanon.ok()) {
      heat_->ForgetParent(parent);
      return Status::OK();
    }
    kids.push_back(*kcanon);
  }

  std::unordered_set<uint64_t> pages;
  pages.insert(PageKey(prid.file_id, prid.page_id));
  for (const Rid& kid : kids) {
    pages.insert(PageKey(kid.file_id, kid.page_id));
  }
  if (pages.size() <= 1) {  // already co-located; nothing to repair
    heat_->ForgetParent(parent);
    return Status::OK();
  }
  if (pages.size() > *budget) return Status::OK();  // retry next round

  std::vector<Rid> group;
  group.reserve(1 + kids.size());
  group.push_back(prid);
  group.insert(group.end(), kids.begin(), kids.end());

  bool created_file = false;
  Transaction* txn = nullptr;
  TB_ASSIGN_OR_RETURN(txn, txns_->Begin(client_id_));

  struct Moved {
    Rid old_rid;
    Rid new_rid;
    ExtentPos pos;
    uint16_t class_id = 0;
    std::vector<std::pair<uint32_t, int64_t>> index_keys;  // (index id, key)
  };
  std::vector<Moved> moved;
  moved.reserve(group.size());

  // The whole group moves — or none of it does — inside one journal-backed
  // transaction. Any failure below aborts through the physical rollback,
  // restoring the pre-round disk image bit for bit.
  Status body = [&]() -> Status {
    const uint16_t target = EnsureTargetFile(&created_file);
    uint64_t copied = 0;
    for (const Rid& old : group) {
      Moved m;
      m.old_rid = old;
      TB_ASSIGN_OR_RETURN(m.pos, FindPosition(old));

      ObjectHandle* h = nullptr;
      TB_ASSIGN_OR_RETURN(h, store.Get(old));
      m.class_id = h->class_id;
      ObjectData data;
      TB_ASSIGN_OR_RETURN(data, store.Materialize(h));
      store.Unref(h);

      // Unhook the old rid from its indexes while it is still readable; the
      // new copy re-enters them below.
      std::vector<uint32_t> ids;
      TB_ASSIGN_OR_RETURN(ids, store.GetIndexIds(old));
      for (uint32_t id : ids) {
        IndexInfo* idx = db_->IndexById(id);
        if (idx == nullptr) continue;
        const int64_t key = AsInt(data[idx->attr]);
        TB_RETURN_IF_ERROR(idx->tree->Remove(key, old));
        m.index_keys.emplace_back(id, key);
      }

      CreateOptions copts;
      copts.file_id = target;
      copts.preallocate_index_header =
          db_->CollectionIsIndexed(m.pos.col->name());
      TB_ASSIGN_OR_RETURN(m.new_rid,
                          store.CreateObject(m.class_id, data, copts));
      ++copied;
      if (fail_after_objects_ > 0 && copied >= fail_after_objects_) {
        return Status::Internal("recluster: injected mid-migration crash");
      }
      TB_RETURN_IF_ERROR(txns_->RecordInsert());
      TB_RETURN_IF_ERROR(txns_->RecordDelete());
      TB_RETURN_IF_ERROR(store.DeleteRecord(old));
      moved.push_back(std::move(m));
    }

    // Reference repair through the schema's inverse declarations: the new
    // parent points at the new children, each child back at the new parent.
    const Rid new_parent = moved.front().new_rid;
    std::vector<Rid> new_kids;
    new_kids.reserve(moved.size() - 1);
    for (size_t i = 1; i < moved.size(); ++i) {
      new_kids.push_back(moved[i].new_rid);
    }
    TB_RETURN_IF_ERROR(store.SetRefSet(
        new_parent, static_cast<size_t>(set_attr), new_kids));
    for (size_t i = 1; i < moved.size(); ++i) {
      const ClassDef& ccls = db_->schema().GetClass(moved[i].class_id);
      for (size_t a = 0; a < ccls.attr_count(); ++a) {
        if (ccls.attr(a).type == AttrType::kRef &&
            ccls.attr(a).target_class == pcls.name()) {
          TB_RETURN_IF_ERROR(store.SetRef(moved[i].new_rid, a, new_parent));
          break;
        }
      }
    }

    // Extent + index repair, through the same maintenance paths the DML
    // executor uses.
    for (const Moved& m : moved) {
      TB_RETURN_IF_ERROR(m.pos.col->Set(m.pos.pos, m.new_rid));
    }
    for (const Moved& m : moved) {
      for (const auto& [id, key] : m.index_keys) {
        IndexInfo* idx = db_->IndexById(id);
        if (idx == nullptr) continue;
        Rid canonical;
        TB_ASSIGN_OR_RETURN(canonical, store.AddIndexRef(m.new_rid, id));
        TB_RETURN_IF_ERROR(idx->tree->Insert(key, canonical));
      }
    }
    return Status::OK();
  }();

  if (body.ok()) {
    TB_RETURN_IF_ERROR(txns_->Commit(txn));
    for (const Moved& m : moved) {
      positions_.erase(m.old_rid.Packed());
      positions_[m.new_rid.Packed()] = m.pos;
    }
    heat_->ForgetParent(parent);
    heat_->ForgetParent(prid);
    for (size_t i = 0; i < pages.size(); ++i) sim.ChargePageMigrated();
    for (size_t i = 0; i < moved.size(); ++i) sim.ChargeObjectMigrated();
    *budget -= static_cast<uint32_t>(pages.size());
    return Status::OK();
  }

  // Roll the whole group back: physical page restore, truncation of pages
  // (and the target file, when born inside this transaction), cache
  // discard, cursor re-derivation — all inside TxnManager::Abort.
  TB_RETURN_IF_ERROR(txns_->Abort(txn));
  sim.ChargeMigrationAbort();
  *aborted = true;
  if (created_file) target_file_ = 0xFFFF;
  // The extent map still describes the rolled-back (= original) layout;
  // the heat entry is dropped so a poisoned group cannot wedge the
  // reorganizer in an abort loop.
  heat_->ForgetParent(parent);
  heat_->ForgetParent(prid);
  return Status::OK();
}

Status Reorganizer::RunRound() {
  // The reorganizer's own reads must not feed the heat it is acting on —
  // self-heat would make every migrated page look hot again immediately.
  ObjectStore::ObserverScope pause(&db_->store(), nullptr);
  SimContext& sim = db_->sim();
  const double start_ns = sim.elapsed_ns();

  if (!positions_built_) TB_RETURN_IF_ERROR(BuildPositions());

  std::vector<HeatTracker::Candidate> hot =
      heat_->HotParents(sim.elapsed_ns(), min_heat_, min_span_);
  uint32_t budget = page_budget_;
  for (const HeatTracker::Candidate& cand : hot) {
    if (budget == 0) break;
    bool aborted = false;
    TB_RETURN_IF_ERROR(MigrateGroup(cand.parent, &budget, &aborted));
  }

  // Handles materialized during the round die with it — the reorganizer is
  // a maintenance daemon, not a query client with a working set.
  db_->store().DropAllHandles();
  ++rounds_;
  sim.AddReclusterIoNs(static_cast<uint64_t>(sim.elapsed_ns() - start_ns));
  return Status::OK();
}

}  // namespace treebench
