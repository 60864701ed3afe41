// A fresh temporary directory owned by one scope: created by mkdtemp in
// the constructor, removed with everything in it by the destructor, so
// every exit path (return, throw, early error) cleans up. Socket runners
// put Unix socket files and per-node reports here; socket paths are
// length-limited (~108 chars), hence the short /tmp prefix.
#pragma once

#include <string>
#include <sys/types.h>

namespace fedms::core {

class ScratchDir {
 public:
  // Creates /tmp/fedmsXXXXXX. Throws std::runtime_error if mkdtemp fails.
  ScratchDir();
  // Removes the directory tree — only in the process that created it, so
  // a forked child that unwinds never deletes its parent's directory.
  ~ScratchDir();

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  pid_t owner_;
};

}  // namespace fedms::core
