#include "lattice_evaluator.hh"

#include <algorithm>
#include <cstring>

#include "common/check.hh"
#include "common/simd.hh"

namespace harmonia
{

LatticeEvaluator::LatticeEvaluator(const GpuDevice &device,
                                   const KernelProfile &profile,
                                   const KernelPhase &phase,
                                   const LatticeDemand &demand,
                                   TimingAxisTables &tables)
    : device_(device), demand_(demand), timing_(tables),
      power_(device.powerTables()),
      prep_(device.engine().prepare(profile, phase)),
      nCfLattice_(device.space().count(Tunable::ComputeFreq)),
      wholeLattice_(demand.requested.size() == device.space().size())
{
    device_.engine().buildAxisTables(prep_, demand, tables);
}

void
LatticeEvaluator::evaluateBatchAtInto(const size_t *cuIdx,
                                      const size_t *cfIdx,
                                      const size_t *memIdx, size_t n,
                                      KernelResult *out) const
{
    for (size_t base = 0; base < n; base += kBatchChunk) {
        const size_t len = std::min(kBatchChunk, n - base);
        evaluateChunkAtInto(cuIdx + base, cfIdx + base, memIdx + base,
                            len, out + base);
    }
}

/**
 * The vertical kernel. Structure:
 *
 *  1. a gather stage provides each lane's axis-table and power-plane
 *     inputs: canonical chunks load packs directly from the SoA
 *     planes (contiguous, periodic, or broadcast runs), any other
 *     lane pattern goes through an indexed scalar gather into stack
 *     SoA buffers;
 *  2. vector passes mirror TimingEngine::combine() and
 *     GpuDevice::composeResult() op for op over the packs — same
 *     operations, same order, same operands per lane, only evaluated
 *     VDouble::width lanes at a time (so the results are bitwise
 *     identical to GpuDevice::run(); docs/MODEL.md §9);
 *  3. a scalar scatter pass assembles each KernelResult and runs the
 *     same always-on validation run() runs.
 */
void
LatticeEvaluator::evaluateChunkAtInto(const size_t *cuIdx,
                                      const size_t *cfIdx,
                                      const size_t *memIdx, size_t n,
                                      KernelResult *out) const
{
    using simd::VDouble;
    constexpr size_t kC = kBatchChunk;

    const size_t nCu = timing_.cuValues.size();
    const size_t nCf = timing_.computeFreqValues.size();
    const LatticePowerTables &pw = power_;

    // ---- Gather: lane inputs from the SoA planes ---------------------
    alignas(64) double ct[kC];     // compute (ALU issue) time
    alignas(64) double l2t[kC];    // L2 service time
    alignas(64) double hit[kC];    // L2 hit rate
    alignas(64) double off[kC];    // off-chip bytes
    alignas(64) double bwBps[kC];  // resolved bandwidth
    alignas(64) double pk[kC];     // peak bus bandwidth
    alignas(64) double ipk[kC];    // 1 / peak bus bandwidth
    alignas(64) double l2bw[kC];   // L2 service bandwidth
    alignas(64) double gCuPre[kC], gUncPre[kC], gLeak[kC];
    alignas(64) double iCuDyn[kC], iUncDyn[kC], iLeak[kC], iGpuTot[kC];
    alignas(64) double mFR[kC], mLFS[kC], mVS[kC], mBG[kC];
    alignas(64) double imBG[kC], imAP[kC], imRW[kC], imTerm[kC],
        imPhy[kC], iMemTot[kC];
    // A chunk that walks the lattice in canonical mem-major order from
    // a compute-frequency row boundary (what GpuDevice::runLattice
    // produces for a canonical sweep) reads contiguous, periodic, or
    // chunk-constant table runs. The vector loop below then loads
    // straight from the SoA planes — contiguous packs from the
    // gpu-slot and bandwidth planes, one periodic L2 pack per
    // compute-frequency offset, and broadcasts for the per-CU-row and
    // per-chunk-constant values — instead of staging 25 gather
    // buffers. Fusion requires the whole lattice (so the device's
    // power planes line up with the demand's grid) and packs that
    // never straddle a compute-frequency row (nCf a multiple of the
    // vector width); otherwise the chunk takes the indexed gather,
    // which handles any lane pattern.
    bool canonical = wholeLattice_ && n > 0 && cfIdx[0] == 0;
    if (canonical) {
        const size_t cu0 = cuIdx[0], m0 = memIdx[0];
        for (size_t i = 0; i < n && canonical; ++i)
            canonical = memIdx[i] == m0 && cfIdx[i] == i % nCf &&
                        cuIdx[i] == cu0 + i / nCf;
    }
    const bool fused = canonical && nCf % VDouble::width == 0;
    if (!fused) {
        for (size_t i = 0; i < n; ++i) {
            const size_t gridPair = cuIdx[i] * nCf + cfIdx[i];
            const size_t bwSlot =
                (memIdx[i] * nCu + cuIdx[i]) * nCf + cfIdx[i];
            // The power planes are over the lattice axes.
            const size_t gpuSlot =
                demand_.cuLattice[cuIdx[i]] * nCfLattice_ +
                demand_.computeFreqLattice[cfIdx[i]];
            const size_t memAt = demand_.memFreqLattice[memIdx[i]];
            ct[i] = timing_.computeTime[gridPair];
            l2t[i] = timing_.l2Time[cfIdx[i]];
            hit[i] = timing_.l2HitRate[cuIdx[i]];
            off[i] = timing_.offChipBytes[cuIdx[i]];
            bwBps[i] = timing_.bandwidthBps[bwSlot];
            pk[i] = timing_.peakBandwidth[memIdx[i]];
            ipk[i] = timing_.invPeakBandwidth[memIdx[i]];
            l2bw[i] = timing_.l2Bandwidth[cfIdx[i]];
            gCuPre[i] = pw.gpuCuDynPrefix[gpuSlot];
            gUncPre[i] = pw.gpuUncoreDynPrefix[gpuSlot];
            gLeak[i] = pw.gpuLeakage[gpuSlot];
            iCuDyn[i] = pw.idleGpuCuDynamic[gpuSlot];
            iUncDyn[i] = pw.idleGpuUncoreDynamic[gpuSlot];
            iLeak[i] = pw.idleGpuLeakage[gpuSlot];
            iGpuTot[i] = pw.idleGpuTotal[gpuSlot];
            mFR[i] = pw.memFRatio[memAt];
            mLFS[i] = pw.memLowFreqScale[memAt];
            mVS[i] = pw.memVScale[memAt];
            mBG[i] = pw.memBackground[memAt];
            imBG[i] = pw.idleMemBackground[memAt];
            imAP[i] = pw.idleMemActivatePrecharge[memAt];
            imRW[i] = pw.idleMemReadWrite[memAt];
            imTerm[i] = pw.idleMemTermination[memAt];
            imPhy[i] = pw.idleMemPhy[memAt];
            iMemTot[i] = pw.idleMemTotal[memAt];
        }
    }

    // ---- Vector outputs ----------------------------------------------
    alignas(64) double memTime[kC], busyTime[kC], execTime[kC];
    alignas(64) double valuBusy[kC], memUnitBusy[kC], memUnitStalled[kC],
        writeUnitStalled[kC], l2CacheHit[kC], icActivity[kC];
    alignas(64) double pCuDyn[kC], pUncDyn[kC], pLeak[kC];
    alignas(64) double pBG[kC], pAP[kC], pRW[kC], pTerm[kC], pPhy[kC],
        pOther[kC];
    alignas(64) double cardE[kC], gpuE[kC], memE[kC];

    const TimingParams &tp = device_.engine().params();
    const GpuPowerParams &gp = device_.gpuPower().params();
    const Gddr5PowerParams &mp =
        device_.engine().memorySystem().gddr5().powerParams();
    const BoardPowerParams &bp = device_.boardPower().params();

    const VDouble zero(0.0), one(1.0), hundred(100.0), tiny(1e-12);
    const VDouble vExposure(prep_.exposure);
    const VDouble vLaunch(tp.launchOverheadSec);
    const VDouble vBusW(tp.busStallWeight);
    // exposureStallWeight * prep.exposure is config-invariant; the
    // scalar combine recomputes the identical product per config.
    const VDouble vExpStall(tp.exposureStallWeight * prep_.exposure);
    const VDouble vWriteShare(prep_.writeShare);
    const VDouble vReqBytes(prep_.requestedBytes);
    const VDouble vFloor(gp.activityFloor);
    const VDouble vOneMinusFloor(1.0 - gp.activityFloor);
    const VDouble vOneMinusRowHit(1.0 - prep_.phase.rowHitFraction);
    const VDouble vRowBuf(mp.rowBufferBytes);
    const VDouble vActE(mp.activateEnergyNj), vNano(1.0e-9);
    const VDouble vRwE(mp.readWriteEnergyPjPerByte), vPico(1.0e-12);
    const VDouble vTermE(mp.terminationEnergyPjPerByte);
    const VDouble vPhyIdle(mp.phyIdleAtRef);
    const VDouble vPhyE(mp.phyEnergyPjPerByte);
    // fanWatts + miscWatts associates left in compose(), so the pair
    // folds into one broadcast without changing any bits.
    const VDouble vFanMisc(bp.fanWatts + bp.miscWatts);
    const VDouble vVr(bp.vrLossFraction);

    // Fused-gather bases and chunk-constant broadcasts: lane i of a
    // canonical chunk maps to gpu slot g0 + i, bandwidth slot b0 + i,
    // and the chunk's single memory frequency m0.
    const size_t g0 = fused ? cuIdx[0] * nCf : 0;
    const size_t b0 = fused ? (memIdx[0] * nCu + cuIdx[0]) * nCf : 0;
    VDouble cPk, cIpk, cMFR, cMLFS, cMVS, cMBG;
    VDouble cImBG, cImAP, cImRW, cImTerm, cImPhy, cIMemTot;
    if (fused) {
        const size_t m0 = memIdx[0];
        cPk = VDouble(timing_.peakBandwidth[m0]);
        cIpk = VDouble(timing_.invPeakBandwidth[m0]);
        cMFR = VDouble(pw.memFRatio[m0]);
        cMLFS = VDouble(pw.memLowFreqScale[m0]);
        cMVS = VDouble(pw.memVScale[m0]);
        cMBG = VDouble(pw.memBackground[m0]);
        cImBG = VDouble(pw.idleMemBackground[m0]);
        cImAP = VDouble(pw.idleMemActivatePrecharge[m0]);
        cImRW = VDouble(pw.idleMemReadWrite[m0]);
        cImTerm = VDouble(pw.idleMemTermination[m0]);
        cImPhy = VDouble(pw.idleMemPhy[m0]);
        cIMemTot = VDouble(pw.idleMemTotal[m0]);
    }

    for (size_t i = 0; i < n; i += VDouble::width) {
        const size_t lanes = std::min(VDouble::width, n - i);
        VDouble vCt, vL2t, vHit, vOff, vBw, vPk, vIpk;
        VDouble vL2bwIn, vGCuPre, vGUncPre, vGLeak;
        VDouble vICuDyn, vIUncDyn, vILeak, vIGpuTot;
        VDouble vMFR, vMLFS, vMVS, vMBG;
        VDouble vImBG, vImAP, vImRW, vImTerm, vImPhy, vIMemTot;
        if (fused) {
            vCt = VDouble::loadN(&timing_.computeTime[g0 + i], lanes);
            vBw = VDouble::loadN(&timing_.bandwidthBps[b0 + i], lanes);
            vGCuPre = VDouble::loadN(&pw.gpuCuDynPrefix[g0 + i], lanes);
            vGUncPre =
                VDouble::loadN(&pw.gpuUncoreDynPrefix[g0 + i], lanes);
            vGLeak = VDouble::loadN(&pw.gpuLeakage[g0 + i], lanes);
            vICuDyn =
                VDouble::loadN(&pw.idleGpuCuDynamic[g0 + i], lanes);
            vIUncDyn =
                VDouble::loadN(&pw.idleGpuUncoreDynamic[g0 + i], lanes);
            vILeak = VDouble::loadN(&pw.idleGpuLeakage[g0 + i], lanes);
            vIGpuTot = VDouble::loadN(&pw.idleGpuTotal[g0 + i], lanes);
            // The pack never straddles a compute-frequency row, so the
            // L2 axis repeats at offset i % nCf and the per-CU-row
            // values are pack constants.
            const size_t cf0 = i % nCf;
            vL2t = VDouble::loadN(&timing_.l2Time[cf0], lanes);
            vL2bwIn = VDouble::loadN(&timing_.l2Bandwidth[cf0], lanes);
            const size_t cu = cuIdx[0] + i / nCf;
            vHit = VDouble(timing_.l2HitRate[cu]);
            vOff = VDouble(timing_.offChipBytes[cu]);
            vPk = cPk;
            vIpk = cIpk;
            vMFR = cMFR;
            vMLFS = cMLFS;
            vMVS = cMVS;
            vMBG = cMBG;
            vImBG = cImBG;
            vImAP = cImAP;
            vImRW = cImRW;
            vImTerm = cImTerm;
            vImPhy = cImPhy;
            vIMemTot = cIMemTot;
            // The scatter pass reads these four lane inputs back.
            vCt.storeN(ct + i, lanes);
            vL2t.storeN(l2t + i, lanes);
            vHit.storeN(hit + i, lanes);
            vOff.storeN(off + i, lanes);
        } else {
            vCt = VDouble::loadN(ct + i, lanes);
            vL2t = VDouble::loadN(l2t + i, lanes);
            vHit = VDouble::loadN(hit + i, lanes);
            vOff = VDouble::loadN(off + i, lanes);
            vBw = VDouble::loadN(bwBps + i, lanes);
            vPk = VDouble::loadN(pk + i, lanes);
            vIpk = VDouble::loadN(ipk + i, lanes);
            vL2bwIn = VDouble::loadN(l2bw + i, lanes);
            vGCuPre = VDouble::loadN(gCuPre + i, lanes);
            vGUncPre = VDouble::loadN(gUncPre + i, lanes);
            vGLeak = VDouble::loadN(gLeak + i, lanes);
            vICuDyn = VDouble::loadN(iCuDyn + i, lanes);
            vIUncDyn = VDouble::loadN(iUncDyn + i, lanes);
            vILeak = VDouble::loadN(iLeak + i, lanes);
            vIGpuTot = VDouble::loadN(iGpuTot + i, lanes);
            vMFR = VDouble::loadN(mFR + i, lanes);
            vMLFS = VDouble::loadN(mLFS + i, lanes);
            vMVS = VDouble::loadN(mVS + i, lanes);
            vMBG = VDouble::loadN(mBG + i, lanes);
            vImBG = VDouble::loadN(imBG + i, lanes);
            vImAP = VDouble::loadN(imAP + i, lanes);
            vImRW = VDouble::loadN(imRW + i, lanes);
            vImTerm = VDouble::loadN(imTerm + i, lanes);
            vImPhy = VDouble::loadN(imPhy + i, lanes);
            vIMemTot = VDouble::loadN(iMemTot + i, lanes);
        }

        // -- TimingEngine::combine() ----------------------------------
        // Lanes with zero off-chip traffic or zero resolved bandwidth
        // divide anyway (the pad value keeps the operands finite only
        // on live lanes; a masked-out inf/NaN quotient is discarded by
        // the select, exactly like the scalar ternary skips it).
        const VDouble vMemTime =
            select(vOff > zero && vBw > zero, vOff / vBw, zero);
        const VDouble vLongest = vmax(vmax(vCt, vL2t), vMemTime);
        const VDouble vTotal = vCt + vL2t + vMemTime;
        const VDouble vBusy =
            vLongest + vExposure * (vTotal - vLongest);
        const VDouble vExec = vBusy + vLaunch;
        const VDouble vInvWall = one / vmax(vExec, tiny);
        const VDouble vValuBusy =
            vmin(hundred, hundred * vCt * vInvWall);
        const VDouble vMemActive = vmax(vL2t, vMemTime);
        const VDouble vMemBusy =
            vmin(hundred, hundred * vMemActive * vInvWall);
        const VDouble vBusUtil = vBw * vIpk;
        const VDouble vStallFrac =
            vmin(one, vBusW * vBusUtil + vExpStall);
        const VDouble vMemStalled = vMemBusy * vStallFrac;
        const VDouble vWriteStalled = vMemStalled * vWriteShare;
        const VDouble vL2Hit = hundred * vHit;
        const VDouble vAchieved = vOff * vInvWall;
        const VDouble vIc = vmin(vmin(vAchieved, vPk) / vPk, one);

        vMemTime.storeN(memTime + i, lanes);
        vBusy.storeN(busyTime + i, lanes);
        vExec.storeN(execTime + i, lanes);
        vValuBusy.storeN(valuBusy + i, lanes);
        vMemBusy.storeN(memUnitBusy + i, lanes);
        vMemStalled.storeN(memUnitStalled + i, lanes);
        vWriteStalled.storeN(writeUnitStalled + i, lanes);
        vL2Hit.storeN(l2CacheHit + i, lanes);
        vIc.storeN(icActivity + i, lanes);

        // -- GpuDevice::composeResult() -------------------------------
        const VDouble vInvBusy = one / vmax(vBusy, tiny);
        const VDouble vL2Bps = vReqBytes * vInvBusy;
        const VDouble vL2Act = vmin(one, vL2Bps / vL2bwIn);
        const VDouble vBusyValuPct =
            vmin(hundred, hundred * vCt * vInvBusy);

        // GpuPowerModel::powerFromFactors on the busy activity.
        const VDouble vCuAct =
            vFloor + vOneMinusFloor * vBusyValuPct / hundred;
        const VDouble vUncAct = vFloor + vOneMinusFloor * vL2Act;
        const VDouble vBusyCuDyn = vGCuPre * vCuAct;
        const VDouble vBusyUncDyn = vGUncPre * vUncAct;
        const VDouble vBusyLeak = vGLeak;

        // Gddr5Model::powerFromFactors on the busy traffic.
        const VDouble vOffBps = vOff * vInvBusy;
        const VDouble vTraffic = vmin(vOffBps, vPk);
        const VDouble vLfsVs = vMLFS;
        const VDouble vVsV = vMVS;
        const VDouble vBusyBG = vMBG;
        const VDouble vMiss = vTraffic * vOneMinusRowHit;
        const VDouble vBusyAP = vMiss / vRowBuf * vActE * vNano;
        const VDouble vBusyRW =
            vTraffic * vRwE * vPico * vLfsVs * vVsV;
        const VDouble vBusyTerm =
            vTraffic * vTermE * vPico * vLfsVs * vVsV;
        const VDouble vBusyPhy =
            (vPhyIdle * vMFR + vTraffic * vPhyE * vPico) * vVsV;

        // BoardPowerModel::compose on busy and idle breakdowns.
        const VDouble vBusyGpuTot =
            vBusyCuDyn + vBusyUncDyn + vBusyLeak;
        const VDouble vBusyMemTot =
            vBusyBG + vBusyAP + vBusyRW + vBusyTerm + vBusyPhy;
        const VDouble vBusyOther =
            vFanMisc + vVr * (vBusyGpuTot + vBusyMemTot);
        const VDouble vIdleGpuTot = vIGpuTot;
        const VDouble vIdleMemTot = vIMemTot;
        const VDouble vIdleOther =
            vFanMisc + vVr * (vIdleGpuTot + vIdleMemTot);
        const VDouble vBusyCardTot =
            vBusyGpuTot + vBusyMemTot + vBusyOther;
        const VDouble vIdleCardTot =
            vIdleGpuTot + vIdleMemTot + vIdleOther;

        // Energy integration and the nine time-weighted blends.
        // composeResult()'s invTotal is the same expression as invWall
        // on the same execTime, so the reciprocal is shared here.
        const VDouble vCardE =
            vBusyCardTot * vBusy + vIdleCardTot * vLaunch;
        const VDouble vGpuE =
            vBusyGpuTot * vBusy + vIdleGpuTot * vLaunch;
        const VDouble vMemE =
            vBusyMemTot * vBusy + vIdleMemTot * vLaunch;
        auto blend = [&](VDouble busyW, VDouble idleW) {
            return (busyW * vBusy + idleW * vLaunch) * vInvWall;
        };
        const VDouble vPCuDyn = blend(vBusyCuDyn, vICuDyn);
        const VDouble vPUncDyn = blend(vBusyUncDyn, vIUncDyn);
        const VDouble vPLeak = blend(vBusyLeak, vILeak);
        const VDouble vPBG = blend(vBusyBG, vImBG);
        const VDouble vPAP = blend(vBusyAP, vImAP);
        const VDouble vPRW = blend(vBusyRW, vImRW);
        const VDouble vPTerm = blend(vBusyTerm, vImTerm);
        const VDouble vPPhy = blend(vBusyPhy, vImPhy);
        const VDouble vPOther = blend(vBusyOther, vIdleOther);

        vCardE.storeN(cardE + i, lanes);
        vGpuE.storeN(gpuE + i, lanes);
        vMemE.storeN(memE + i, lanes);
        vPCuDyn.storeN(pCuDyn + i, lanes);
        vPUncDyn.storeN(pUncDyn + i, lanes);
        vPLeak.storeN(pLeak + i, lanes);
        vPBG.storeN(pBG + i, lanes);
        vPAP.storeN(pAP + i, lanes);
        vPRW.storeN(pRW + i, lanes);
        vPTerm.storeN(pTerm + i, lanes);
        vPPhy.storeN(pPhy + i, lanes);
        vPOther.storeN(pOther + i, lanes);
    }

    // ---- Scatter: assemble results, run run()'s always-on validation
    // per lane ---------------------------------------------------------
    for (size_t i = 0; i < n; ++i) {
        KernelResult &r = out[i];
        KernelTiming &t = r.timing;
        const size_t bwSlot =
            (memIdx[i] * nCu + cuIdx[i]) * nCf + cfIdx[i];
        t.execTime = execTime[i];
        t.computeTime = ct[i];
        t.l2Time = l2t[i];
        t.memTime = memTime[i];
        t.launchOverhead = tp.launchOverheadSec;
        t.busyTime = busyTime[i];
        t.occupancy = prep_.occupancy;
        t.l2HitRate = hit[i];
        t.requestedBytes = prep_.requestedBytes;
        t.offChipBytes = off[i];
        t.bandwidth = timing_.bandwidthAt(bwSlot);

        CounterSet &c = t.counters;
        c.valuBusy = valuBusy[i];
        c.valuUtilization = prep_.valuUtilization;
        c.memUnitBusy = memUnitBusy[i];
        c.memUnitStalled = memUnitStalled[i];
        c.writeUnitStalled = writeUnitStalled[i];
        c.l2CacheHit = l2CacheHit[i];
        c.icActivity = icActivity[i];
        c.normVgpr = prep_.normVgpr;
        c.normSgpr = prep_.normSgpr;
        c.valuInsts = prep_.aluWaveInsts;
        c.vfetchInsts = prep_.vfetchInsts;
        c.vwriteInsts = prep_.vwriteInsts;
        c.offChipBytes = off[i];
        c.validate();

        r.power.gpu.cuDynamic = pCuDyn[i];
        r.power.gpu.uncoreDynamic = pUncDyn[i];
        r.power.gpu.leakage = pLeak[i];
        r.power.mem.background = pBG[i];
        r.power.mem.activatePrecharge = pAP[i];
        r.power.mem.readWrite = pRW[i];
        r.power.mem.termination = pTerm[i];
        r.power.mem.phy = pPhy[i];
        r.power.other = pOther[i];
        r.cardEnergy = cardE[i];
        r.gpuEnergy = gpuE[i];
        r.memEnergy = memE[i];

        HARMONIA_CHECK_FINITE(t.execTime);
        HARMONIA_CHECK_NONNEG(t.busyTime);
        HARMONIA_CHECK(t.execTime >= t.launchOverhead,
                       "execTime below the fixed launch overhead");
        HARMONIA_CHECK_RANGE(t.l2HitRate, 0.0, 1.0);
        HARMONIA_CHECK_NONNEG(t.bandwidth.effectiveBps);
        HARMONIA_CHECK_NONNEG(r.cardEnergy);
        HARMONIA_CHECK_NONNEG(r.gpuEnergy);
        HARMONIA_CHECK_NONNEG(r.memEnergy);
        HARMONIA_CHECK_FINITE(r.power.total());
    }
}

} // namespace harmonia
