#pragma once

// Crash-safe file replacement: write-temp, fsync, rename. After a crash
// (SIGKILL included) at any byte, the destination either holds its
// previous contents or the complete new contents -- never a torn prefix.
// The suite journal and the benches' --out files write through here; the
// journal then grows by synced appends.

#include <string>

namespace rdcn {

/// Atomically replaces `path` with `contents`: writes `path + ".tmp"`,
/// fsyncs it, renames over `path`, then fsyncs the directory so the
/// rename itself survives power loss. Throws std::runtime_error (with
/// errno context) on any I/O failure; the temp file is removed on error.
void atomic_write_file(const std::string& path, const std::string& contents);

/// Appends `contents` to the existing file `path` and fsyncs it before
/// returning. A crash mid-append can leave only a torn tail after the
/// previous contents, never damage them -- the suite journal's record
/// log. Throws std::runtime_error (with errno context) on I/O failure.
void append_synced(const std::string& path, const std::string& contents);

}  // namespace rdcn
