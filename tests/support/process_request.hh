/**
 * @file
 * Test-side driver for a single texture request: phase 1 (sampling,
 * then the record-side L1) and phase 2 back to back. The renderer
 * streams whole tiles from record into replay through a per-cluster
 * window; unit tests use this to push one request at a time through a
 * TexturePath and observe its caches, pipelines and statistics.
 */

#ifndef TEXPIM_TESTS_SUPPORT_PROCESS_REQUEST_HH
#define TEXPIM_TESTS_SUPPORT_PROCESS_REQUEST_HH

#include "gpu/texture_path.hh"

namespace texpim {

/** Sample `req` as a one-lane quad into a fresh stream, run it
 *  through its cluster's texture L1, then replay that record through
 *  `path`'s timing model. */
inline TexResponse
processRequest(TexturePath &path, const TexRequest &req)
{
    ReplayStream stream;
    SamplerScratch scratch;
    path.sampleQuad(req, &req.coords, 1, stream, scratch);
    path.recordL1(req.clusterId, req.coords.cameraAngle, stream, 0);
    return path.replay(req, stream, 0);
}

} // namespace texpim

#endif // TEXPIM_TESTS_SUPPORT_PROCESS_REQUEST_HH
