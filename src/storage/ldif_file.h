#ifndef METACOMM_STORAGE_LDIF_FILE_H_
#define METACOMM_STORAGE_LDIF_FILE_H_

#include <string>

#include "common/status.h"
#include "ldap/backend.h"

namespace metacomm::storage {

/// The directory's one LDIF surface: export to and import from LDIF
/// text, and the file variants of both.
///
/// The 2000-era deployment pattern (and still OpenLDAP's bootstrap
/// path): the DIT is exported to and re-imported from LDIF. MetaComm
/// uses it for the UM-crash story — after a restart, the directory is
/// reloaded and Synchronize() reconciles it with the devices (paper
/// §4.4/§5.1) — and as the snapshot store's bootstrap fallback. Files
/// are written through the durable-write path (write + fsync + atomic
/// rename) and failures are typed Status with errno context.

/// Accounting for one LDIF import. One size_t would make "3 loaded"
/// indistinguishable from "3 loaded, 40 silently skipped".
struct ImportReport {
  size_t loaded = 0;              // Entries added to the backend.
  size_t skipped_duplicates = 0;  // Already present (idempotent reload).
  size_t rejected = 0;            // Change records / backend-rejected adds.
};

/// Serializes every entry of `backend` (parents before children) as
/// LDIF content records, off one consistent snapshot.
std::string ExportLdif(const ldap::Backend& backend);

/// Imports LDIF content records into `backend` via Add, in order.
/// Existing entries count as skipped_duplicates; change records and
/// entries the backend refuses (schema violations, missing parents)
/// count as rejected and are passed over. Only a parse failure is a
/// Status error.
StatusOr<ImportReport> ImportLdif(ldap::Backend* backend,
                                  const std::string& text);

/// Writes ExportLdif(backend) to `path`, atomically and durably.
Status SaveToLdifFile(const ldap::Backend& backend,
                      const std::string& path);

/// ImportLdif of the file at `path`. I/O failures are Status errors
/// too (kNotFound for a missing file).
StatusOr<ImportReport> LoadFromLdifFile(ldap::Backend* backend,
                                        const std::string& path);

}  // namespace metacomm::storage

#endif  // METACOMM_STORAGE_LDIF_FILE_H_
