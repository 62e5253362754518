#include "storage/snapshot_store.h"

#include <algorithm>
#include <cstdio>

#include "common/strings.h"
#include "ldap/ldif.h"
#include "storage/fs.h"
#include "storage/ldif_file.h"
#include "storage/record_codec.h"

namespace metacomm::storage {

std::string SnapshotStore::SnapshotPath(uint64_t version) const {
  char name[64];
  std::snprintf(name, sizeof(name), "snapshot-%020llu.mcsnap",
                static_cast<unsigned long long>(version));
  return dir_ + "/" + name;
}

StatusOr<std::vector<uint64_t>> SnapshotStore::ListVersions() const {
  METACOMM_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir_));
  std::vector<uint64_t> versions;
  for (const std::string& name : names) {
    if (!StartsWith(name, "snapshot-") || !name.ends_with(".mcsnap")) {
      continue;
    }
    std::string_view digits(name);
    digits.remove_prefix(9);
    digits.remove_suffix(7);
    std::optional<uint64_t> version = ParseUint64(digits);
    if (!version.has_value()) continue;
    versions.push_back(*version);
  }
  std::sort(versions.begin(), versions.end());
  return versions;
}

StatusOr<uint64_t> SnapshotStore::Save(const ldap::Backend& backend) const {
  METACOMM_RETURN_IF_ERROR(MakeDirs(dir_));
  ldap::Backend::SnapshotPtr snapshot = backend.GetSnapshot();
  std::string out;
  size_t entries = 0;
  ldap::Backend::ForEachEntry(
      *snapshot, [&out, &entries](const ldap::Entry& entry) {
        out += EncodeRecord(ldap::ToLdif(entry));
        ++entries;
        return true;
      });
  std::string footer = "END " + std::to_string(snapshot->version) + " " +
                       std::to_string(entries);
  out += EncodeRecord(footer);
  METACOMM_RETURN_IF_ERROR(
      WriteFileDurable(SnapshotPath(snapshot->version), out));
  return snapshot->version;
}

Status SnapshotStore::LoadFile(uint64_t version, ldap::Backend* backend,
                               size_t* entries) const {
  METACOMM_ASSIGN_OR_RETURN(std::string content,
                            ReadFileToString(SnapshotPath(version)));
  // Pass 1: validate every frame and the footer before touching the
  // backend — a half-loaded directory is worse than falling back to an
  // older snapshot.
  std::vector<std::string> payloads;
  size_t offset = 0;
  while (offset < content.size()) {
    DecodedRecord decoded = DecodeRecord(
        std::string_view(content).substr(offset), max_record_bytes_);
    if (decoded.kind != DecodedRecord::Kind::kRecord) {
      return Status::Internal("snapshot frame invalid at offset " +
                              std::to_string(offset) + ": " +
                              decoded.error);
    }
    offset += decoded.consumed;
    payloads.push_back(std::move(decoded.payload));
  }
  if (payloads.empty() || !StartsWith(payloads.back(), "END ")) {
    return Status::Internal("snapshot footer missing (torn dump)");
  }
  std::vector<std::string> footer = Split(payloads.back(), ' ');
  if (footer.size() != 3 || ParseUint64(footer[1]) != version ||
      ParseUint64(footer[2]) != payloads.size() - 1) {
    return Status::Internal("snapshot footer mismatch");
  }
  payloads.pop_back();

  for (const std::string& ldif : payloads) {
    METACOMM_ASSIGN_OR_RETURN(std::vector<ldap::LdifRecord> records,
                              ldap::ParseLdif(ldif));
    if (records.size() != 1 || records[0].op != ldap::UpdateOp::kAdd) {
      return Status::Internal(
          "snapshot frame is not one LDIF content record");
    }
    METACOMM_RETURN_IF_ERROR(backend->Add(records[0].entry));
  }
  *entries = payloads.size();
  return Status::Ok();
}

StatusOr<SnapshotStore::LoadResult> SnapshotStore::LoadNewestInto(
    ldap::Backend* backend) const {
  LoadResult result;
  StatusOr<std::vector<uint64_t>> versions = ListVersions();
  if (versions.ok()) {
    for (auto it = versions->rbegin(); it != versions->rend(); ++it) {
      size_t entries = 0;
      Status loaded = LoadFile(*it, backend, &entries);
      if (loaded.ok()) {
        result.version = *it;
        result.entries = entries;
        return result;
      }
      // A partially applied file would poison the fallback; the
      // two-pass LoadFile only writes after full validation, so the
      // backend is still clean here.
      ++result.corrupt_skipped;
    }
  }
  // LDIF escape hatch.
  std::string fallback = dir_ + "/bootstrap.ldif";
  StatusOr<ImportReport> report = LoadFromLdifFile(backend, fallback);
  if (report.ok()) {
    result.from_ldif_fallback = true;
    result.entries = report->loaded;
    return result;
  }
  if (report.status().code() != StatusCode::kNotFound) {
    return report.status();
  }
  return result;  // Nothing durable: version 0, empty start.
}

Status SnapshotStore::Prune(int keep) const {
  METACOMM_ASSIGN_OR_RETURN(std::vector<uint64_t> versions,
                            ListVersions());
  if (keep < 0) keep = 0;
  if (versions.size() <= static_cast<size_t>(keep)) return Status::Ok();
  size_t drop = versions.size() - static_cast<size_t>(keep);
  for (size_t i = 0; i < drop; ++i) {
    METACOMM_RETURN_IF_ERROR(RemoveFile(SnapshotPath(versions[i])));
  }
  return SyncDir(dir_);
}

}  // namespace metacomm::storage
