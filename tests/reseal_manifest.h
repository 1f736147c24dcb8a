// Re-sealing a tampered warehouse: the persistence and JSONL codec suites
// plant bad bytes in a saved flexoffers.jsonl and must get past the
// manifest's size/CRC check, so that only the decoder can reject them.

#ifndef FLEXVIS_TESTS_RESEAL_MANIFEST_H_
#define FLEXVIS_TESTS_RESEAL_MANIFEST_H_

#include <string>
#include <utility>

#include "dw/persistence.h"
#include "util/fileio.h"
#include "util/json.h"
#include "util/status.h"
#include "util/store.h"

namespace flexvis {

/// Re-seals a saved warehouse's manifest over its four content files as they
/// now are on disk (lod.bin stays uncovered), through the same store commit
/// a save uses.
inline Status ResealManifest(const std::string& dir) {
  StoreFiles files;
  for (const char* name :
       {"dim_prosumer.csv", "dim_region.csv", "dim_grid_node.csv", "flexoffers.jsonl"}) {
    Result<std::string> bytes = ReadFileToString(dir + "/" + name);
    if (!bytes.ok()) return bytes.status();
    files.emplace_back(name, *std::move(bytes));
  }
  StoreOptions options;
  options.manifest_name = dw::kSnapshotManifest;
  Result<DurableStore> store = DurableStore::Create(dir, options, files, JsonValue());
  if (!store.ok()) return store.status();
  return store->Close();
}

}  // namespace flexvis

#endif  // FLEXVIS_TESTS_RESEAL_MANIFEST_H_
