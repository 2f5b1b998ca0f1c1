# Included at the end of the repository's project() call (passed as
# CMAKE_PROJECT_INCLUDE by run.py). Defers including perfbench/CMakeLists.txt
# until the top-level CMakeLists.txt has finished, so the benchmark links
# against the libraries exactly as the repository defines them. EVAL
# expands the path now; a deferred call would expand it at the top level.
if(NOT PERFBENCH_ATTACHED)
  set(PERFBENCH_ATTACHED ON)
  cmake_language(EVAL CODE "
    cmake_language(DEFER CALL include [[${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt]])")
endif()
