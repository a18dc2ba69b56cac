#include "src/stats/stat_store.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>

#include "src/common/artifact.h"

namespace treebench {

void StatRecord::FillFrom(const Metrics& m, double seconds) {
  cc_page_faults = m.client_cache_misses;
  elapsed_seconds = seconds;
  rpcs_number = m.rpc_count;
  rpcs_total_bytes = m.rpc_bytes;
  d2sc_read_pages = m.disk_reads;
  sc2cc_read_pages = m.client_cache_misses;
  cc_miss_rate_pct = m.ClientMissRatePct();
  sc_miss_rate_pct = m.ServerMissRatePct();
  swap_ios = m.swap_ios;
}

std::string StatRecord::CsvHeader() {
  return "numtest,database,cluster,algo,query,cold,sel_patients_pct,"
         "sel_providers_pct,elapsed_seconds,result_count,cc_page_faults,"
         "rpcs_number,rpcs_total_bytes,d2sc_read_pages,sc2cc_read_pages,"
         "cc_miss_rate_pct,sc_miss_rate_pct,swap_ios,server_cache_bytes,"
         "client_cache_bytes,num_clients,throughput_qps,latency_p50_s,"
         "latency_p95_s,latency_p99_s";
}

std::string StatRecord::ToCsvRow() const {
  std::string row = std::to_string(numtest) + "," + database + "," + cluster +
                    "," + algo + "," + CsvQuote(query_text);
  for (const std::string& field :
       {FormatUint(cold ? 1 : 0), FormatFixed(selectivity_patients_pct, 3),
        FormatFixed(selectivity_providers_pct, 3),
        FormatFixed(elapsed_seconds, 2), FormatUint(result_count),
        FormatUint(cc_page_faults), FormatUint(rpcs_number),
        FormatUint(rpcs_total_bytes), FormatUint(d2sc_read_pages),
        FormatUint(sc2cc_read_pages), FormatFixed(cc_miss_rate_pct, 2),
        FormatFixed(sc_miss_rate_pct, 2), FormatUint(swap_ios),
        FormatUint(server_cache_bytes), FormatUint(client_cache_bytes),
        FormatUint(num_clients), FormatFixed(throughput_qps, 3),
        FormatFixed(latency_p50_s, 4), FormatFixed(latency_p95_s, 4),
        FormatFixed(latency_p99_s, 4)}) {
    row += "," + field;
  }
  return row;
}

int StatStore::Add(StatRecord record) {
  if (record.numtest == 0) record.numtest = next_id_++;
  int id = record.numtest;
  next_id_ = std::max(next_id_, id + 1);
  records_.push_back(std::move(record));
  return id;
}

std::vector<const StatRecord*> StatStore::Select(
    const std::function<bool(const StatRecord&)>& pred) const {
  std::vector<const StatRecord*> out;
  for (const auto& r : records_) {
    if (pred(r)) out.push_back(&r);
  }
  return out;
}

std::vector<const StatRecord*> StatStore::WinnersByGroup() const {
  std::map<std::tuple<std::string, std::string, double, double>,
           const StatRecord*>
      best;
  for (const auto& r : records_) {
    auto key = std::make_tuple(r.database, r.cluster,
                               r.selectivity_patients_pct,
                               r.selectivity_providers_pct);
    auto it = best.find(key);
    if (it == best.end() || r.elapsed_seconds < it->second->elapsed_seconds) {
      best[key] = &r;
    }
  }
  std::vector<const StatRecord*> out;
  out.reserve(best.size());
  for (auto& [key, rec] : best) out.push_back(rec);
  return out;
}

Status StatStore::ExportCsv(const std::string& path) const {
  std::string out = StatRecord::CsvHeader() + "\n";
  for (const auto& r : records_) out += r.ToCsvRow() + "\n";
  return WriteFile(path, out);
}

namespace {

void AppendMember(std::string* out, const char* key, const std::string& token,
                  bool* first) {
  if (!*first) *out += ", ";
  *first = false;
  *out += '"';
  *out += key;
  *out += "\": ";
  *out += token;
}

void AppendJsonString(std::string* out, const char* key,
                      const std::string& value, bool* first) {
  AppendMember(out, key, '"' + JsonEscape(value) + '"', first);
}

void AppendJsonNumber(std::string* out, const char* key, double value,
                      bool* first) {
  AppendMember(out, key, FormatNumber(value), first);
}

void AppendJsonU64(std::string* out, const char* key, uint64_t value,
                   bool* first) {
  AppendMember(out, key, FormatUint(value), first);
}

}  // namespace

std::string StatStore::ToJson() const {
  std::string out = "[\n";
  bool first_rec = true;
  for (const auto& r : records_) {
    if (!first_rec) out += ",\n";
    first_rec = false;
    out += "  {";
    bool first = true;
    AppendJsonU64(&out, "numtest", static_cast<uint64_t>(r.numtest), &first);
    AppendJsonString(&out, "database", r.database, &first);
    AppendJsonString(&out, "cluster", r.cluster, &first);
    AppendJsonString(&out, "algo", r.algo, &first);
    AppendJsonString(&out, "query", r.query_text, &first);
    AppendJsonU64(&out, "cold", r.cold ? 1 : 0, &first);
    AppendJsonNumber(&out, "sel_patients_pct", r.selectivity_patients_pct,
                     &first);
    AppendJsonNumber(&out, "sel_providers_pct", r.selectivity_providers_pct,
                     &first);
    AppendJsonNumber(&out, "elapsed_seconds", r.elapsed_seconds, &first);
    AppendJsonU64(&out, "result_count", r.result_count, &first);
    AppendJsonU64(&out, "cc_page_faults", r.cc_page_faults, &first);
    AppendJsonU64(&out, "rpcs_number", r.rpcs_number, &first);
    AppendJsonU64(&out, "rpcs_total_bytes", r.rpcs_total_bytes, &first);
    AppendJsonU64(&out, "d2sc_read_pages", r.d2sc_read_pages, &first);
    AppendJsonU64(&out, "sc2cc_read_pages", r.sc2cc_read_pages, &first);
    AppendJsonNumber(&out, "cc_miss_rate_pct", r.cc_miss_rate_pct, &first);
    AppendJsonNumber(&out, "sc_miss_rate_pct", r.sc_miss_rate_pct, &first);
    AppendJsonU64(&out, "swap_ios", r.swap_ios, &first);
    AppendJsonU64(&out, "server_cache_bytes", r.server_cache_bytes, &first);
    AppendJsonU64(&out, "client_cache_bytes", r.client_cache_bytes, &first);
    AppendJsonU64(&out, "num_clients", r.num_clients, &first);
    AppendJsonNumber(&out, "throughput_qps", r.throughput_qps, &first);
    AppendJsonNumber(&out, "latency_p50_s", r.latency_p50_s, &first);
    AppendJsonNumber(&out, "latency_p95_s", r.latency_p95_s, &first);
    AppendJsonNumber(&out, "latency_p99_s", r.latency_p99_s, &first);
    out += "}";
  }
  out += "\n]\n";
  return out;
}

Status StatStore::ExportJson(const std::string& path) const {
  return WriteFile(path, ToJson());
}

Status StatStore::ExportGnuplot(
    const std::string& path,
    const std::function<bool(const StatRecord&)>& pred) const {
  // Pivot: rows = selectivity on patients, columns = algorithms.
  std::set<std::string> algos;
  std::map<double, std::map<std::string, double>> rows;
  for (const auto& r : records_) {
    if (!pred(r)) continue;
    algos.insert(r.algo);
    rows[r.selectivity_patients_pct][r.algo] = r.elapsed_seconds;
  }
  std::string out = "# sel_patients_pct";
  for (const auto& a : algos) out += " " + a;
  out += "\n";
  char buf[64];
  for (const auto& [sel, cols] : rows) {
    std::snprintf(buf, sizeof(buf), "%g", sel);
    out += buf;
    for (const auto& a : algos) {
      auto it = cols.find(a);
      out += it == cols.end() ? " -" : " " + FormatFixed(it->second, 2);
    }
    out += "\n";
  }
  return WriteFile(path, out);
}

}  // namespace treebench
