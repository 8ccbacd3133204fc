# Included right after the root project() call via
# -DCMAKE_PROJECT_dagsched_INCLUDE=<path to this file>.  Target names used by
# e2ebench/CMakeLists.txt resolve once the root CMakeLists.txt has defined
# them, at generate time.
add_subdirectory("${CMAKE_CURRENT_LIST_DIR}" e2ebench)
