// Reproduces the paper's Section 4.1 experiment: "get the Rids of patients
// whose mrn < k" and build a hash table on the result — keyed by Rids
// (8-byte physical identifiers, no materialization) versus keyed by
// Handles (each entry forces the 60-byte in-memory representative to be
// allocated and initialized). The experiment that first exposed how
// expensive O2's handles are on large associative accesses.
#include "common/bench_util.h"

#include <unordered_map>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/query/index_fetch.h"

namespace treebench::bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  auto derby = BuildDerbyOrDie(2000, 1000,
                               ClusteringStrategy::kClassClustered, opts);
  Database* db = derby->db.get();

  std::vector<std::vector<std::string>> rows;
  for (double sel : {10.0, 30.0, 60.0, 90.0}) {
    int64_t hi = derby->MrnCutoff(sel);

    // Variant 1: hash the Rids straight off the index scan. No object is
    // touched; entries are 8 bytes.
    db->BeginMeasuredRun();
    {
      std::unordered_map<uint64_t, uint32_t> table;
      uint32_t i = 0;
      Status s = ForEachSelected(
          db, "Patients", derby->meta.c_mrn, INT64_MIN + 1, hi,
          FetchOrder::kKeyOrder, [&](const Rid& rid) -> Status {
            db->sim().AllocTransient(8);
            db->sim().ChargeHashInsert();
            table.emplace(rid.Packed(), i++);
            return Status::OK();
          });
      TB_CHECK(s.ok());
      db->sim().FreeTransient(table.size() * 8);
    }
    double rid_seconds = db->sim().elapsed_seconds() * opts.scale;

    // Variant 2: materialize a Handle per selected patient and hash on it.
    db->BeginMeasuredRun();
    uint64_t entries = 0;
    {
      std::unordered_map<uint64_t, ObjectHandle*> table;
      Status s = ForEachSelected(
          db, "Patients", derby->meta.c_mrn, INT64_MIN + 1, hi,
          FetchOrder::kKeyOrder, [&](const Rid& rid) -> Status {
            ObjectHandle* h = nullptr;
            TB_ASSIGN_OR_RETURN(h, db->store().Get(rid));
            db->sim().AllocTransient(sizeof(void*) + 8);
            db->sim().ChargeHashInsert();
            table.emplace(rid.Packed(), h);
            return Status::OK();
          });
      TB_CHECK(s.ok());
      entries = table.size();
      for (auto& [key, h] : table) db->store().Unref(h);
      db->sim().FreeTransient(table.size() * (sizeof(void*) + 8));
    }
    double handle_seconds = db->sim().elapsed_seconds() * opts.scale;

    rows.push_back({FormatSeconds(sel, 0), WithThousands(entries),
                    FormatSeconds(rid_seconds),
                    FormatSeconds(handle_seconds),
                    Ratio(handle_seconds, rid_seconds)});
  }
  PrintTable(
      "sec4.1 — hash table on Rids vs on Handles (seconds, paper scale)",
      {"selectivity %", "entries", "rids(s)", "handles(s)",
       "handles/rids"},
      rows);
  std::printf(
      "\nexpected: the Rid variant never materializes objects; the Handle"
      " variant\npays object I/O + 60-byte handle allocation per entry"
      " (paper Section 4.1/4.3)\n");
  ExportStats(StatStore(), opts);  // no records yet: an empty export
  return 0;
}

}  // namespace
}  // namespace treebench::bench

int main(int argc, char** argv) { return treebench::bench::Main(argc, argv); }
