# Writes OUT, a C++ file defining driver::buildContentHash(): the first 32
# hex digits of a SHA-256 over the relative path and SHA-256 of every file
# under SRC_ROOT, in sorted order. The gcsafe_driver target re-runs this
# whenever any file under src/ changes (see CMakeLists.txt next to this
# file), so two builds from different sources never share a fingerprint.
#
#   cmake -DSRC_ROOT=<repo>/src -DOUT=<file.cpp> -P BuildFingerprint.cmake
file(GLOB_RECURSE Files RELATIVE ${SRC_ROOT} ${SRC_ROOT}/*)
list(SORT Files)
set(Manifest "")
foreach(F IN LISTS Files)
  file(SHA256 ${SRC_ROOT}/${F} H)
  string(APPEND Manifest "${F} ${H}\n")
endforeach()
string(SHA256 Digest "${Manifest}")
string(SUBSTRING ${Digest} 0 32 Digest)
file(WRITE ${OUT}
  "// Generated by src/driver/BuildFingerprint.cmake; do not edit.\n"
  "namespace gcsafe::driver {\n"
  "const char *buildContentHash() { return \"${Digest}\"; }\n"
  "} // namespace gcsafe::driver\n")
