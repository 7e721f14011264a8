// Importer for real Ethereum data in the public BigQuery schema.
//
// The paper's authors extracted their trace from a geth node; today the
// easiest public source of the same data is the BigQuery dataset
// `bigquery-public-data.crypto_ethereum.traces`, whose CSV export has one
// row per message call — exactly the edge granularity §II-B needs. This
// importer converts such an export into a History (dense account ids,
// call traces grouped into transactions, hash-linked blocks), after which
// every simulator, bench and CLI command runs on real data unchanged.
//
// Accepted columns (located by header name, extra columns ignored):
//   block_number       integer, rows must be grouped by block and
//                      non-decreasing
//   block_timestamp    unix seconds, or "YYYY-MM-DD HH:MM:SS[ UTC]"
//   transaction_hash   groups rows into transactions (empty → own tx)
//   from_address       0x-hex or empty (empty/invalid rows are skipped)
//   to_address         0x-hex; empty for some creates (then skipped
//                      unless trace_type is create with an address)
//   value              decimal wei; values beyond uint64 are clamped
//   trace_type         call | create | suicide | reward | ...
//                      (reward rows are skipped; suicide maps to a
//                      transfer of the remaining balance)
#pragma once

#include <iosfwd>
#include <string>

#include "workload/generator.hpp"

namespace ethshard::workload {

struct ImportStats {
  std::uint64_t rows = 0;
  std::uint64_t imported_calls = 0;
  std::uint64_t skipped_rows = 0;
  std::uint64_t transactions = 0;
  std::uint64_t blocks = 0;
  std::uint64_t accounts = 0;  // distinct addresses seen
};

struct ImportResult {
  History history;
  ImportStats stats;
};

/// Parses a BigQuery-style traces CSV. Throws util::InputError on an
/// empty file, a missing required column or out-of-order blocks; malformed rows are
/// counted in stats.skipped_rows and dropped.
ImportResult import_bigquery_traces(std::istream& in);

/// File convenience; throws util::InputError if the file cannot open.
ImportResult import_bigquery_traces_file(const std::string& path);

}  // namespace ethshard::workload
