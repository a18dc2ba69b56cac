#ifndef TREEBENCH_COMMON_ARTIFACT_H_
#define TREEBENCH_COMMON_ARTIFACT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace treebench {

// The text format of every artifact (stat records, reports, traces, query
// logs, run summaries) and the one path that puts artifacts on disk. Each
// writer keeps its own layout; the tokens and the file I/O live here.

/// `s` escaped for a JSON string body (no surrounding quotes): `"` and `\`
/// get a backslash, a newline becomes `\n` and every other control
/// character `\u00XX`. Other bytes, UTF-8 included, pass through.
std::string JsonEscape(std::string_view s);

/// `s` as one quoted CSV field (RFC 4180): between double quotes, with
/// every embedded double quote doubled.
std::string CsvQuote(std::string_view s);

/// The artifact number token, `%.9g`: deterministic on one build, compact,
/// and precise enough to round-trip the magnitudes the artifacts carry.
std::string FormatNumber(double v);

/// `v` with `digits` decimals (`%.*f`), at whatever length that takes: the
/// fixed-point token of stat-record CSVs, trace timestamps and bench tables.
std::string FormatFixed(double v, int digits);

/// The artifact integer token: plain decimal.
std::string FormatUint(uint64_t v);

/// Writes all of `content` to `stream`; false on a short write.
bool WriteAll(std::FILE* stream, std::string_view content);

/// Creates or truncates `path` and writes `content` to it. Every write and
/// the close are checked, so a missing directory or a full disk returns
/// `Internal: cannot write PATH`.
Status WriteFile(const std::string& path, std::string_view content);

/// The whole content of `path`; `Internal: cannot read PATH` on failure.
Result<std::string> ReadFile(const std::string& path);

}  // namespace treebench

#endif  // TREEBENCH_COMMON_ARTIFACT_H_
