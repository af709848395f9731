// Seeded EC5 violations outside src/exec (labelled src/util/ec5_util.cc).
// EC5 reads every body under src/, whether or not an operator calls it,
// and reports each use at its own line. Never compiled.
namespace ecodb::util {

int JitterDelay(int bound) {
  return rand() % bound;
}

double WallClockSeconds() {
  const auto now = std::chrono::system_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

}  // namespace ecodb::util
