#include "src/query/dml.h"

#include <utility>
#include <vector>

#include "src/cost/trace.h"
#include "src/query/oql/parser.h"

namespace treebench {

namespace {

/// The (extent position, rid) of each member of `col` whose `key_attr` lies
/// in [lo, hi), or of every member when `unbounded`: an extent scan that
/// reads each object's key and charges one compare for it.
Result<std::vector<std::pair<uint64_t, Rid>>> ScanExtentMatches(
    Database* db, PersistentCollection* col, size_t key_attr, int64_t lo,
    int64_t hi, bool unbounded) {
  std::vector<std::pair<uint64_t, Rid>> out;
  ObjectStore& store = db->store();
  auto it = col->Scan();
  for (; it.Valid(); it.Next()) {
    if (!unbounded) {
      ObjectHandle* h = nullptr;
      TB_ASSIGN_OR_RETURN(h, store.Get(it.rid()));
      Result<int32_t> v = store.GetInt32(h, key_attr);
      store.Unref(h);
      if (!v.ok()) return v.status();
      db->sim().ChargeCompare();
      if (*v < lo || *v >= hi) continue;
    }
    out.emplace_back(it.index(), it.rid());
  }
  TB_RETURN_IF_ERROR(it.status());
  return out;
}

/// Collects the rids of collection members whose `key_attr` lies in
/// [lo, hi), through an index range scan when one exists on the attribute,
/// else an extent scan with a per-object compare.
Result<std::vector<Rid>> CollectMatches(Database* db,
                                        const std::string& collection,
                                        size_t key_attr, int64_t lo,
                                        int64_t hi, bool unbounded,
                                        bool* used_index) {
  std::vector<Rid> out;
  *used_index = false;
  if (!unbounded) {
    if (IndexInfo* idx = db->FindIndex(collection, key_attr)) {
      auto it = idx->tree->Scan(lo, hi);
      for (; it.Valid(); it.Next()) out.push_back(it.rid());
      TB_RETURN_IF_ERROR(it.status());
      *used_index = true;
      return out;
    }
  }
  PersistentCollection* col = nullptr;
  TB_ASSIGN_OR_RETURN(col, db->GetCollection(collection));
  std::vector<std::pair<uint64_t, Rid>> matches;
  TB_ASSIGN_OR_RETURN(matches, ScanExtentMatches(db, col, key_attr, lo, hi,
                                                 unbounded));
  out.reserve(matches.size());
  for (const auto& match : matches) out.push_back(match.second);
  return out;
}

Result<DmlStats> RunUpdate(Database* db, TxnManager* txns,
                           const BoundUpdate& u) {
  DmlStats out;
  std::vector<Rid> victims;
  TB_ASSIGN_OR_RETURN(victims,
                      CollectMatches(db, u.collection, u.key_attr, u.lo,
                                     u.hi, u.unbounded, &out.used_index));
  out.matched = victims.size();
  ObjectStore& store = db->store();
  for (const Rid& rid : victims) {
    Rid canonical;
    TB_ASSIGN_OR_RETURN(canonical, store.ResolveForward(rid));
    for (const auto& [attr, value] : u.sets) {
      ObjectHandle* h = nullptr;
      TB_ASSIGN_OR_RETURN(h, store.Get(canonical));
      Result<int32_t> old_value = store.GetInt32(h, attr);
      store.Unref(h);
      if (!old_value.ok()) return old_value.status();
      if (txns != nullptr) {
        txns->RecordUpdate(canonical, attr, *old_value, value);
      }
      TB_RETURN_IF_ERROR(db->UpdateIndexedInt32(canonical, attr, value));
      db->sim().ChargeLogicalUpdate();
    }
    ++out.affected;
  }
  return out;
}

/// Unlinks a dying object from its ODMG inverse relationships: removes it
/// from each parent's inverse set (kRef side) and nils out each child's
/// back-reference (kRefSet side) — no cascading delete.
Status DetachRelationships(Database* db, const Rid& canonical) {
  ObjectStore& store = db->store();
  ObjectHandle* h = nullptr;
  TB_ASSIGN_OR_RETURN(h, store.Get(canonical));
  const ClassDef& cls = db->schema().GetClass(h->class_id);
  Status st = Status::OK();
  for (size_t a = 0; a < cls.attr_count() && st.ok(); ++a) {
    const AttrDef& attr = cls.attr(a);
    if (attr.inverse_attr.empty() || attr.target_class.empty()) continue;
    const ClassDef* target = nullptr;
    Result<const ClassDef*> target_r = db->schema().FindClass(
        attr.target_class);
    if (!target_r.ok()) {
      st = target_r.status();
      break;
    }
    target = *target_r;
    Result<size_t> inverse = target->AttrIndex(attr.inverse_attr);
    if (!inverse.ok()) {
      st = inverse.status();
      break;
    }
    if (attr.type == AttrType::kRef) {
      Result<Rid> parent = store.GetRef(h, a);
      if (!parent.ok()) {
        st = parent.status();
        break;
      }
      if (parent->Packed() == kNilRid.Packed()) continue;
      Rid parent_canonical;
      Result<Rid> pc = store.ResolveForward(*parent);
      if (!pc.ok()) {
        st = pc.status();
        break;
      }
      parent_canonical = *pc;
      ObjectHandle* ph = nullptr;
      Result<ObjectHandle*> ph_r = store.Get(parent_canonical);
      if (!ph_r.ok()) {
        st = ph_r.status();
        break;
      }
      ph = *ph_r;
      Result<std::vector<Rid>> set = store.GetRefSet(ph, *inverse);
      store.Unref(ph);
      if (!set.ok()) {
        st = set.status();
        break;
      }
      std::vector<Rid> remaining;
      remaining.reserve(set->size());
      for (const Rid& member : *set) {
        if (member.Packed() != canonical.Packed()) {
          remaining.push_back(member);
        }
      }
      if (remaining.size() != set->size()) {
        st = store.SetRefSet(parent_canonical, *inverse, remaining);
      }
    } else if (attr.type == AttrType::kRefSet) {
      Result<std::vector<Rid>> children = store.GetRefSet(h, a);
      if (!children.ok()) {
        st = children.status();
        break;
      }
      for (const Rid& child : *children) {
        if (child.Packed() == kNilRid.Packed()) continue;
        st = store.SetRef(child, *inverse, kNilRid);
        if (!st.ok()) break;
      }
    }
  }
  store.Unref(h);
  return st;
}

Result<DmlStats> RunDelete(Database* db, TxnManager* txns,
                           const BoundDelete& d) {
  DmlStats out;
  PersistentCollection* col = nullptr;
  TB_ASSIGN_OR_RETURN(col, db->GetCollection(d.collection));
  ObjectStore& store = db->store();
  // Victims come from the extent scan because delete needs extent
  // positions; an index could find the rids but not their slots.
  std::vector<std::pair<uint64_t, Rid>> victims;
  TB_ASSIGN_OR_RETURN(victims, ScanExtentMatches(db, col, d.key_attr, d.lo,
                                                 d.hi, d.unbounded));
  out.matched = victims.size();
  // Back to front: SwapRemove moves the tail element, which never sits
  // before a yet-unprocessed victim when positions descend.
  for (auto v = victims.rbegin(); v != victims.rend(); ++v) {
    if (txns != nullptr) TB_RETURN_IF_ERROR(txns->RecordDelete());
    Rid canonical;
    TB_ASSIGN_OR_RETURN(canonical, store.ResolveForward(v->second));
    TB_RETURN_IF_ERROR(DetachRelationships(db, canonical));
    TB_RETURN_IF_ERROR(db->RemoveFromIndexes(canonical));
    TB_RETURN_IF_ERROR(store.DeleteRecord(v->second));
    TB_RETURN_IF_ERROR(col->SwapRemove(v->first));
    db->sim().ChargeLogicalDelete();
    ++out.affected;
  }
  return out;
}

Result<DmlStats> RunInsert(Database* db, TxnManager* txns,
                           const BoundInsert& ins) {
  if (txns != nullptr) TB_RETURN_IF_ERROR(txns->RecordInsert());
  PersistentCollection* col = nullptr;
  TB_ASSIGN_OR_RETURN(col, db->GetCollection(ins.collection));
  uint64_t count = 0;
  TB_ASSIGN_OR_RETURN(count, col->Count());
  if (count == 0) {
    return Status::InvalidArgument(
        "insert into empty collection: no file placement to infer");
  }
  // New members land in the file of the collection's current tail — the
  // only placement an O2 insert can make without a reorganization.
  Rid last;
  TB_ASSIGN_OR_RETURN(last, col->At(count - 1));
  Rid last_canonical;
  TB_ASSIGN_OR_RETURN(last_canonical, db->store().ResolveForward(last));
  CreateOptions opts;
  opts.file_id = last_canonical.file_id;
  opts.preallocate_index_header = db->CollectionIsIndexed(ins.collection);
  Rid rid;
  TB_ASSIGN_OR_RETURN(rid,
                      db->store().CreateObject(ins.class_id, ins.data, opts));
  Rid canonical;
  TB_ASSIGN_OR_RETURN(canonical, db->NotifyInsert(ins.collection, rid));
  TB_RETURN_IF_ERROR(col->Append(canonical));
  db->sim().ChargeLogicalInsert();
  DmlStats out;
  out.matched = 1;
  out.affected = 1;
  return out;
}

std::string_view DmlName(const BoundDml& dml) {
  if (std::holds_alternative<BoundUpdate>(dml)) return "update";
  if (std::holds_alternative<BoundInsert>(dml)) return "insert";
  return "delete";
}

}  // namespace

Result<DmlStats> RunDml(Database* db, TxnManager* txns, const BoundDml& dml) {
  if (txns != nullptr && txns->active() == nullptr) {
    return Status::Internal(
        "RunDml with a TxnManager requires an active transaction");
  }
  MetricScope scope(&db->sim(),
                    "dml(" + std::string(DmlName(dml)) + ")");
  Result<DmlStats> out = std::visit(
      [&](const auto& bound) -> Result<DmlStats> {
        using T = std::decay_t<decltype(bound)>;
        if constexpr (std::is_same_v<T, BoundUpdate>) {
          return RunUpdate(db, txns, bound);
        } else if constexpr (std::is_same_v<T, BoundInsert>) {
          return RunInsert(db, txns, bound);
        } else {
          return RunDelete(db, txns, bound);
        }
      },
      dml);
  if (out.ok()) scope.AddRows(out->affected);
  return out;
}

Result<DmlStats> ExecuteDml(Database* db, TxnManager* txns,
                            const std::string& statement) {
  oql::Statement stmt;
  TB_ASSIGN_OR_RETURN(stmt, oql::ParseStatement(statement));
  if (stmt.kind == oql::StatementKind::kSelect) {
    return Status::InvalidArgument(
        "ExecuteDml got a select statement; use the query path");
  }
  BoundDml bound;
  TB_ASSIGN_OR_RETURN(bound, BindDml(db, stmt));
  if (txns == nullptr) return RunDml(db, nullptr, bound);
  Transaction* txn = nullptr;
  TB_ASSIGN_OR_RETURN(txn, txns->Begin());
  Result<DmlStats> result = RunDml(db, txns, bound);
  if (result.ok()) {
    TB_RETURN_IF_ERROR(txns->Commit(txn));
    return result;
  }
  TB_RETURN_IF_ERROR(txns->Abort(txn));
  return result.status();
}

}  // namespace treebench
