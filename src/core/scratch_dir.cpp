#include "core/scratch_dir.h"

#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <system_error>

namespace fedms::core {

ScratchDir::ScratchDir() : owner_(::getpid()) {
  char pattern[] = "/tmp/fedmsXXXXXX";
  if (::mkdtemp(pattern) == nullptr)
    throw std::runtime_error("mkdtemp failed");
  path_ = pattern;
}

ScratchDir::~ScratchDir() {
  if (::getpid() != owner_) return;
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

}  // namespace fedms::core
