#include "storage/ldif_file.h"

#include "ldap/ldif.h"
#include "storage/fs.h"

namespace metacomm::storage {

std::string ExportLdif(const ldap::Backend& backend) {
  // Stream straight off one published snapshot: the export is
  // internally consistent without blocking writers for its duration,
  // and skips materializing the intermediate entry vector.
  ldap::Backend::SnapshotPtr snapshot = backend.GetSnapshot();
  std::string out;
  bool first = true;
  ldap::Backend::ForEachEntry(
      *snapshot, [&out, &first](const ldap::Entry& entry) {
        if (!first) out += "\n";
        first = false;
        out += ldap::ToLdif(entry);
        return true;
      });
  return out;
}

StatusOr<ImportReport> ImportLdif(ldap::Backend* backend,
                                  const std::string& text) {
  METACOMM_ASSIGN_OR_RETURN(std::vector<ldap::LdifRecord> records,
                            ldap::ParseLdif(text));
  ImportReport report;
  for (const ldap::LdifRecord& record : records) {
    if (record.op != ldap::UpdateOp::kAdd) {
      // Directory files hold content records only; a changetype
      // record is counted, not fatal — the rest of the file loads.
      ++report.rejected;
      continue;
    }
    Status status = backend->Add(record.entry);
    if (status.code() == StatusCode::kAlreadyExists) {
      ++report.skipped_duplicates;
      continue;
    }
    if (!status.ok()) {
      ++report.rejected;
      continue;
    }
    ++report.loaded;
  }
  return report;
}

Status SaveToLdifFile(const ldap::Backend& backend,
                      const std::string& path) {
  return WriteFileDurable(path, ExportLdif(backend));
}

StatusOr<ImportReport> LoadFromLdifFile(ldap::Backend* backend,
                                        const std::string& path) {
  METACOMM_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ImportLdif(backend, text);
}

}  // namespace metacomm::storage
