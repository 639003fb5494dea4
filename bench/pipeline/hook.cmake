cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR} CALL include ${CMAKE_SOURCE_DIR}/bench/pipeline/targets.cmake)
