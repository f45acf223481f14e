// Regenerates Table II: mapping of library functions to database operators.
#include <iostream>

#include "core/registry.h"
#include "core/support_matrix.h"

int main() {
  core::RegisterBuiltinBackends();
  std::cout << "TABLE II: Mapping of library functions to database "
               "operators\n\n";
  core::PrintSupportMatrix(std::cout,
                           {"ArrayFire", "Boost.Compute", "Thrust"});
  std::cout << "\nWith the handwritten baseline included:\n\n";
  core::PrintSupportMatrix(
      std::cout, {"ArrayFire", "Boost.Compute", "Thrust", "Handwritten"});
  return 0;
}
