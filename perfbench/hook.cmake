# Included at the end of the root project() call through
# -DCMAKE_PROJECT_eyeball_INCLUDE, so the benchmark builds against the
# library exactly as the repo's own CMakeLists.txt configures it.  Targets
# it links are defined later in the root file; CMake resolves them at
# generate time.
add_subdirectory(${CMAKE_CURRENT_LIST_DIR} ${CMAKE_BINARY_DIR}/perfbench)
