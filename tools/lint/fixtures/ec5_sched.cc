// Seeded EC5 violations in a scheduler body (labelled
// src/sched/ec5_sched.cc): hardware entropy, and a range-for over an
// unordered_map member harvested from the class above its use. Never
// compiled.
namespace ecodb::sched {

class AdmissionQueue {
 public:
  void PickNext();

 private:
  std::unordered_map<uint64_t, int> active_queues_;
};

void AdmissionQueue::PickNext() {
  std::random_device seed_source;
  const unsigned seed = seed_source();
  for (const auto& [session, depth] : active_queues_) {
    Admit(session, depth + static_cast<int>(seed));
  }
}

}  // namespace ecodb::sched
