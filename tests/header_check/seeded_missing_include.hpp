// Planted for the header_check_seeded test: uses std::vector without
// including <vector>, so its generated standalone TU must fail to compile.
#pragma once

inline std::vector<int> seeded_missing_include() { return {}; }
