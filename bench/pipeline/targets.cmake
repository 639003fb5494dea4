# The pipeline benchmark driver. Included at the end of the root
# CMakeLists.txt through hook.cmake, so the driver inherits the root compile
# options (-Wall -Wextra -O2 -Werror=unused-result, C++20, Release) — most of
# the pipeline is header templates compiled into this binary.
add_executable(lightne_benchmark
               ${CMAKE_CURRENT_LIST_DIR}/lightne_benchmark.cc)
target_link_libraries(lightne_benchmark PRIVATE
                      lightne_core lightne_data lightne_eval)
set_target_properties(lightne_benchmark PROPERTIES
                      RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/pipeline)
