#include "src/query/selection.h"

#include "src/cost/trace.h"
#include "src/query/index_fetch.h"
#include "src/query/vectored_fetch.h"

namespace treebench {

std::string_view SelectionModeName(SelectionMode mode) {
  switch (mode) {
    case SelectionMode::kScan:
      return "scan";
    case SelectionMode::kIndexScan:
      return "index";
    case SelectionMode::kSortedIndexScan:
      return "index+sort";
  }
  return "?";
}

Result<QueryRunStats> RunSelection(Database* db, const SelectionSpec& spec) {
  if (spec.cold) TB_RETURN_IF_ERROR(db->BeginMeasuredRun());
  SimContext& sim = db->sim();
  ObjectStore& store = db->store();

  QueryRunStats out;
  {
    // Root span of the measured region; opened after the cold restart so
    // its delta starts from zeroed counters.
    MetricScope root(&sim, std::string("selection(") +
                               std::string(SelectionModeName(spec.mode)) +
                               ")");
    ResultAccounting result(&sim, kResultSetElementBytes);

    auto emit = [&](const Rid& rid) -> Status {
      ObjectHandle* h = nullptr;
      TB_ASSIGN_OR_RETURN(h, store.Get(rid));
      int32_t proj = 0;
      TB_ASSIGN_OR_RETURN(proj, store.GetInt32(h, spec.proj_attr));
      (void)proj;
      result.AddSetElement();
      store.Unref(h);
      return Status::OK();
    };

    switch (spec.mode) {
      case SelectionMode::kScan: {
        // Evaluate the predicate object by object (no index, even if one
        // exists): the Figure 8 standard scan.
        MetricScope scan_scope(&sim, "scan(" + spec.collection + ")");
        TB_RETURN_IF_ERROR(ScanCollection(
            db, spec.collection, [&](const Rid& rid) -> Status {
              ObjectHandle* h = nullptr;
              TB_ASSIGN_OR_RETURN(h, store.Get(rid));
              int32_t v = 0;
              TB_ASSIGN_OR_RETURN(v, store.GetInt32(h, spec.key_attr));
              sim.ChargeCompare();
              if (v >= spec.lo && v < spec.hi) {
                int32_t proj = 0;
                TB_ASSIGN_OR_RETURN(proj, store.GetInt32(h, spec.proj_attr));
                (void)proj;
                result.AddSetElement();
                scan_scope.AddRows(1);
              }
              store.Unref(h);
              return Status::OK();
            }));
        break;
      }
      case SelectionMode::kIndexScan:
        TB_RETURN_IF_ERROR(ForEachSelected(db, spec.collection,
                                           spec.key_attr, spec.lo, spec.hi,
                                           FetchOrder::kKeyOrder, emit));
        break;
      case SelectionMode::kSortedIndexScan:
        TB_RETURN_IF_ERROR(ForEachSelected(db, spec.collection,
                                           spec.key_attr, spec.lo, spec.hi,
                                           FetchOrder::kRidSorted, emit));
        break;
    }
    out.result_count = result.count();
    root.AddRows(result.count());
  }

  out.seconds = sim.elapsed_seconds();
  out.metrics = sim.metrics();
  return out;
}

}  // namespace treebench
