// Small filesystem I/O helpers shared by the on-disk backends
// (gear/fs_store, gear/object_store, gear/persistence, vfs/fs_io).
#pragma once

#include <filesystem>
#include <string>

#include "util/bytes.hpp"

namespace gear {

/// Reads a whole file. Throws Error(kInternal) when unreadable.
Bytes read_file_bytes(const std::filesystem::path& path);

/// Creates/truncates `path` and writes `content`. Throws Error(kInternal)
/// on failure (including short writes).
void write_file_bytes(const std::filesystem::path& path, BytesView content);

/// Crash-safe write: writes `content` to a sibling temp file, fsyncs it,
/// atomically renames it onto `path`, then fsyncs the containing directory.
/// A reader (or a reopen after a crash) therefore sees either no file or the
/// complete content, never a torn prefix; an interrupted write leaves only a
/// "<name>.tmp" sibling. Throws Error(kInternal) on failure.
void write_file_durable(const std::filesystem::path& path, BytesView content);

/// True for a file name write_file_durable uses as its temp ("<name>.tmp"):
/// a leftover one is a torn write that readers must skip.
bool is_durable_temp(const std::string& name);

}  // namespace gear
