#include "probe.h"

namespace pb {

bool layers_traced() { return false; }
std::vector<double> layer_snapshot() { return {}; }
void layer_accumulate(const std::vector<double>&, const std::vector<double>&,
                      std::vector<double>*) {}
void layer_metrics(const std::vector<double>&, std::map<std::string, double>*) {}

}  // namespace pb
