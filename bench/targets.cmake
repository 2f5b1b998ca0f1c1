# Benchmark binaries. Included from the top-level CMakeLists (rather than
# add_subdirectory) so ${CMAKE_BINARY_DIR}/bench contains only the
# executables and `for b in build/bench/*; do $b; done` runs them all.
function(gcsafe_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name}
    gcsafe_driver gcsafe_workloads gcsafe_cord gcsafe_gc
    benchmark::benchmark)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

gcsafe_bench(bench_slowdown)
gcsafe_bench(bench_codesize)
gcsafe_bench(bench_postproc)
gcsafe_bench(bench_analysis_exhibit)
gcsafe_bench(bench_strcpy_opt3)
gcsafe_bench(bench_gc)
gcsafe_bench(bench_annotator)
gcsafe_bench(bench_ablation)
gcsafe_bench(bench_serve)
target_link_libraries(bench_serve gcsafe_serve)
