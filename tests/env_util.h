// ScopedEnv: sets (or, with nullptr, unsets) one environment variable for a
// scope and puts back the caller's value on exit. The CI matrix runs whole
// test binaries under oracle switches such as PALLADIUM_NO_TRACE=1; a test
// that flips a switch must not leave it cleared for every later test.
#ifndef TESTS_ENV_UTIL_H_
#define TESTS_ENV_UTIL_H_

#include <cstdlib>
#include <optional>
#include <string>

namespace palladium {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* outer = std::getenv(name)) saved_ = outer;
    Set(value);
  }
  ~ScopedEnv() { Set(saved_ ? saved_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void Set(const char* value) {
    if (value != nullptr) {
      ::setenv(name_.c_str(), value, 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

  std::string name_;
  std::optional<std::string> saved_;
};

}  // namespace palladium

#endif  // TESTS_ENV_UTIL_H_
